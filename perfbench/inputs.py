"""Seeded advise request sequences.

Everything a request carries — which matrix, which options, and the
structure of every generated inline matrix — is a pure function of the
workload seed, so the same seed gives a byte-identical request stream.

Two traffic mixes share one matrix pool:

* **hot** — a fixed set of (matrix, options) pairs, replayed in blocks
  that each hold every pair once in a seeded order, so the mix is the same
  for every seed and only the order and option draws vary;
* **cold** — never-repeated pairs, in blocks of 21 with a fixed mix: one
  suite matrix, and per inline family three pruned requests and one at
  ``prune: false``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from repro.formats.coo import COOMatrix
from repro.matrices import generators as g

__all__ = [
    "SUITE_POOL",
    "OPTION_SPACE",
    "INLINE_FAMILIES",
    "Request",
    "InlineMatrix",
    "inline_matrix",
    "hot_pairs",
    "hot_sequence",
    "cold_sequence",
    "options_key",
]

#: Suite matrices that regenerate in 0.1-0.6 s; the costlier half of the
#: suite would turn the hot path into a matrix-generation benchmark.
SUITE_POOL = (
    "dense", "pwtk", "stomach", "parabolic_fem",
    "gearbox", "F1", "ASIC_680k", "cfd2",
)

#: (model, precision, nthreads) option combinations a request may carry.
OPTION_SPACE = tuple(product(("mem", "memcomp", "overlap"), ("sp", "dp"), (1, 2, 4)))

#: Generated inline matrices, ~28k nonzeros each: big enough that
#: evaluation is real work, small enough that ~100 cold requests fit in a
#: run.  Equal sizes keep each family's parse cost alike.  Regular (FEM
#: blocks, 3D stencil, diagonals) and irregular (circuit, power-law) x
#: streams are both present.
INLINE_FAMILIES: tuple[tuple[str, Callable[[int], COOMatrix]], ...] = (
    ("fem", lambda s: g.grid2d(22, 22, 9, dof=3, drop_fraction=0.25, seed=s)),
    ("circuit", lambda s: g.circuit(7000, avg_offdiag=2.6, local_span=16, seed=s)),
    ("stencil", lambda s: g.grid3d(12, 12, 12, 27, drop_fraction=0.3, seed=s)),
    ("powerlaw", lambda s: g.powerlaw_graph(8000, 33000, alpha=1.8, seed=s)),
    ("diagonal", lambda s: g.diagonal_pattern(5000, (0, 1, -1, 2, -2, 70, -70),
                                              fill=0.8, seed=s)),
)

#: One inline matrix per family in the hot pair set.
HOT_INLINE = len(INLINE_FAMILIES)
#: Seeded instances per family in the cold stream.
COLD_INLINE = 4 * len(INLINE_FAMILIES)
#: A cold block: this many suite requests, then per family this many
#: pruned requests and one unpruned one.
COLD_SUITES_PER_BLOCK = 1
COLD_PRUNED_PER_FAMILY = 3
COLD_BLOCK = COLD_SUITES_PER_BLOCK + len(INLINE_FAMILIES) * (
    COLD_PRUNED_PER_FAMILY + 1
)


def _derive(seed: int, *parts: object) -> int:
    """A child seed: stable across processes and Python versions."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class InlineMatrix:
    name: str
    coo: COOMatrix
    mm_text: str


def _matrix_market(coo: COOMatrix) -> str:
    buf = io.StringIO()
    buf.write("%%MatrixMarket matrix coordinate pattern general\n")
    buf.write(f"{coo.nrows} {coo.ncols} {coo.nnz}\n")
    for r, c in zip(coo.rows.tolist(), coo.cols.tolist()):
        buf.write(f"{r + 1} {c + 1}\n")
    return buf.getvalue()


def inline_matrix(seed: int, k: int) -> InlineMatrix:
    """The ``k``-th generated matrix of a seed (family cycles with ``k``)."""
    family, build = INLINE_FAMILIES[k % len(INLINE_FAMILIES)]
    coo = build(_derive(seed, "inline", k) % (2**31)).pattern_only()
    return InlineMatrix(f"inline:{family}:{k}", coo, _matrix_market(coo))


@dataclass(frozen=True)
class Request:
    """One advise request: a suite name or inline matrix plus options."""

    rid: str
    matrix: str  # suite name, or InlineMatrix.name
    model: str
    precision: str
    nthreads: int
    prune: bool

    @property
    def pair(self) -> tuple:
        return (self.matrix, self.model, self.precision, self.nthreads, self.prune)

    @property
    def suite(self) -> bool:
        return not self.matrix.startswith("inline:")

    def body(self, inline: dict[str, InlineMatrix]) -> bytes:
        payload: dict = {
            "model": self.model,
            "precision": self.precision,
            "nthreads": self.nthreads,
            "prune": self.prune,
            "top": 3,
        }
        if self.suite:
            payload["suite"] = self.matrix
        else:
            payload["matrix_market"] = inline[self.matrix].mm_text
        return json.dumps(payload, sort_keys=True).encode()


def options_key(model: str, precision: str, nthreads: int, prune: bool) -> str:
    """Key of the pinned best-label table."""
    return f"{model}|{precision}|t{nthreads}|p{int(prune)}"


def hot_pairs(seed: int, inline_names: list[str]) -> list[Request]:
    """The hot pair set: each pool suite matrix and each inline matrix,
    each with one seeded option draw (pruned)."""
    rng = random.Random(_derive(seed, "hot-pairs"))
    names = list(SUITE_POOL) + list(inline_names)
    pairs = []
    for i, name in enumerate(names):
        model, precision, nthreads = rng.choice(OPTION_SPACE)
        pairs.append(Request(f"warm-{i}", name, model, precision, nthreads, True))
    return pairs


def hot_sequence(seed: int, pairs: list[Request]) -> Iterator[Request]:
    """Endless replay of ``pairs`` in blocks, each a seeded permutation."""
    rng = random.Random(_derive(seed, "hot-order"))
    n = 0
    while True:
        block = list(pairs)
        rng.shuffle(block)
        for req in block:
            yield Request(f"hot-{n}", req.matrix, req.model, req.precision,
                          req.nthreads, req.prune)
            n += 1


def cold_sequence(seed: int, inline_names: list[str]) -> Iterator[Request]:
    """Never-repeated (matrix, options) pairs, one block at a time.

    Every block holds the same mix in a seeded order:
    ``COLD_SUITES_PER_BLOCK`` pruned suite requests (the suites in pool
    order) and, per inline family, ``COLD_PRUNED_PER_FAMILY`` pruned
    requests and one unpruned request.
    Suite cold evaluations cost 1-2 s next to ~0.1 s for an inline one,
    so a fixed mix keeps every seed's run the same amount of work.
    Raises ``RuntimeError`` once a matrix has used up its option
    combinations.
    """
    rng = random.Random(_derive(seed, "cold"))
    unused: dict[tuple[str, bool], list] = {}

    def draw(name: str, prune: bool) -> tuple:
        key = (name, prune)
        if key not in unused:
            combos = list(OPTION_SPACE)
            rng.shuffle(combos)
            unused[key] = combos
        if not unused[key]:
            raise RuntimeError(f"cold sequence exhausted the options of {name}")
        return unused[key].pop()

    by_family: dict[str, list[str]] = {}
    for name in inline_names:
        by_family.setdefault(name.split(":")[1], []).append(name)
    used = dict.fromkeys(by_family, 0)
    suites_used = 0
    slots = [("suite", True)] * COLD_SUITES_PER_BLOCK + [
        (family, prune)
        for family in sorted(by_family)
        for prune in (True,) * COLD_PRUNED_PER_FAMILY + (False,)
    ]
    n = 0
    while True:
        block = list(slots)
        rng.shuffle(block)
        for family, prune in block:
            if family == "suite":
                name = SUITE_POOL[suites_used % len(SUITE_POOL)]
                suites_used += 1
            else:
                names = by_family[family]
                name = names[used[family] % len(names)]
                used[family] += 1
            model, precision, nthreads = draw(name, prune)
            yield Request(f"cold-{n}", name, model, precision, nthreads, prune)
            n += 1

