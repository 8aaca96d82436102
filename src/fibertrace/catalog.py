"""Built-in fiber graphs: the genus-1 degeneration types in their minimal
SNC form, and the one genus-2 configuration whose combinatorics we carry.

Each fixed type is a star, one row of ``STARS``: (center multiplicity,
arms listed outward from the center), every curve of genus 0; II* is
(6, [[5, 4, 3, 2, 1], [4, 2], [3]]).  The families In and In* are built
from their parameter k; kodaira:I and kodaira:I* are their k = 0 members.

The genus-1 encodings are the standard ones; each is certified by the
test suite reproducing the known jump for its type, and alternatives
differing by chains of (-2)-curves would serve equally well.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import BadInput, UnknownType, int_text
from .fiber import FiberGraph

# Largest k of In:k and In*:k.  The graph has about k components and the
# work grows linearly in k: jumps on In:10000 and In*:10000 takes about
# 0.04 s and a 22 MB peak on a 2-vCPU Xeon VM.
MAX_PARAMETER = 10**4


class FiberTypeId(NamedTuple):
    family: str              # "kodaira" or "ogg"
    name: str                # e.g. "IV", "In*", "4"
    parameter: int | None = None

    def __str__(self):
        if self.parameter is not None:
            return f"{self.family}:{self.name}:{int_text(self.parameter)}"
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


def _star(center: int, arms: list[list[int]]) -> FiberGraph:
    vertices, edges = [("c", 0, center)], []
    for i, arm in enumerate(arms, start=1):
        inner = "c"
        for j, m in enumerate(arm, start=1):
            vid = f"a{i}.{j}"
            vertices.append((vid, 0, m))
            edges.append((inner, vid))
            inner = vid
    return FiberGraph.build(vertices, edges)


def _cycle(k: int) -> FiberGraph:
    """A cycle of k reduced curves: a loop for k = 1, a parallel pair for
    k = 2; for k = 0 the smooth genus-1 curve of good reduction."""
    if k == 0:
        return FiberGraph.build([("v1", 1, 1)], [])
    vertices = [(f"v{i}", 0, 1) for i in range(1, k + 1)]
    edges = [(f"v{i}", f"v{i % k + 1}") for i in range(1, k + 1)]
    return FiberGraph.build(vertices, edges)


def _istar(k: int) -> FiberGraph:
    """Central chain of k+1 multiplicity-2 curves with a pair of
    multiplicity-1 tails at each end."""
    vertices = [(f"c{i}", 0, 2) for i in range(1, k + 2)]
    vertices += [("a1", 0, 1), ("a2", 0, 1), ("b1", 0, 1), ("b2", 0, 1)]
    edges = [(f"c{i}", f"c{i + 1}") for i in range(1, k + 1)]
    edges += [("a1", "c1"), ("a2", "c1"), ("b1", f"c{k + 1}"), ("b2", f"c{k + 1}")]
    return FiberGraph.build(vertices, edges)


STARS = {
    "kodaira:II": (6, [[1], [2], [3]]),
    "kodaira:II*": (6, [[5, 4, 3, 2, 1], [4, 2], [3]]),
    "kodaira:III": (4, [[1], [1], [2]]),
    "kodaira:III*": (4, [[3, 2, 1], [3, 2, 1], [2]]),
    "kodaira:IV": (3, [[1], [1], [1]]),
    "kodaira:IV*": (3, [[2, 1], [2, 1], [2, 1]]),
    "ogg:4": (4, [[3, 2, 1], [2], [2], [1]]),
}
FAMILIES = {"kodaira:In": _cycle, "kodaira:In*": _istar}
ZERO_MEMBERS = {"kodaira:I": "kodaira:In", "kodaira:I*": "kodaira:In*"}


def lookup(type_id: FiberTypeId) -> FiberGraph:
    """Return the fiber graph of a catalog entry.  A Kodaira id without a
    parameter also answers to the parameter 0: kodaira:IV:0 is kodaira:IV.
    Every valid id returns one shared graph per canonical id; FiberGraph
    is immutable, so callers cannot change it for one another."""
    if not (isinstance(type_id.family, str) and isinstance(type_id.name, str)):
        raise UnknownType("the family and name of a catalog id must be strings")
    key, k = f"{type_id.family}:{type_id.name}", type_id.parameter
    if k is not None and not isinstance(k, int):
        raise UnknownType(f"parameter of catalog id {type_id} must be an integer")
    if key in ZERO_MEMBERS and k in (None, 0):
        key, k = ZERO_MEMBERS[key], 0
    if key in FAMILIES:
        if k is None or k < 0:
            raise UnknownType(f"type {type_id.name} needs a parameter >= 0, e.g. {key}:2")
        if k > MAX_PARAMETER:
            raise BadInput(
                f"type {type_id.name} parameter {int_text(k)} exceeds "
                f"MAX_PARAMETER = {MAX_PARAMETER}"
            )
        return _graph(key, k)
    if key not in STARS or k not in (None, 0) or (k == 0 and type_id.family != "kodaira"):
        raise UnknownType(f"unknown catalog id {type_id}; catalog-list names the built-in ones")
    return _graph(key, None)


# Only ids that passed every check of lookup reach this cache, so no error
# is cached and MAX_PARAMETER is read on every call.  The worst case it
# holds is 32 family members near MAX_PARAMETER: about 65 MB (tracemalloc),
# and about 110 MB once equality, hashing or repr has built their sorted
# vertices and edges views.
@functools.lru_cache(maxsize=32)
def _graph(key: str, k: int | None) -> FiberGraph:
    return _star(*STARS[key]) if k is None else FAMILIES[key](k)


def catalog_ids() -> list[str]:
    """Addressable catalog entries, parameterized families shown with a
    placeholder."""
    return [*ZERO_MEMBERS, *(f"{key}:<k>" for key in FAMILIES), *STARS]
