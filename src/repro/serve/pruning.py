"""Feature-driven pruning of the tuning space.

The exhaustive tuning loop converts a matrix into every distinct
``(kind, block)`` structure (~53 of them) before the models ever see a
number — and conversion dominates the advise latency.  Pruning uses the
:mod:`~repro.serve.features` bundle to discard structures whose *estimated*
occupancy already condemns them, before any conversion happens:

* a padded BCSR/BCSD blocking whose estimated fill implies more than
  ``max_padding_ratio`` stored elements per nonzero cannot beat CSR on a
  bandwidth-bound machine (the MEM bound of eq. 1 grows with padding);
* a decomposed blocking only pays off when a sizable fraction of the
  nonzeros sits in *full* blocks (otherwise it degenerates to CSR plus
  per-submatrix overhead);
* of the surviving rectangular shapes only the ``max_rect_shapes`` with the
  lightest estimated working set per nonzero are kept — the model ranking
  among near-equals is what the un-pruned evaluation is for.

CSR always survives: it is the degenerate 1x1 blocking, the safe fallback
and the baseline every speedup in the paper is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.candidates import Candidate, unique_structures
from ..types import INDEX_BYTES, Precision
from .features import MatrixFeatures

__all__ = ["PruneConfig", "PruneDecision", "prune_candidates"]


@dataclass(frozen=True)
class PruneConfig:
    """Thresholds of the pruning rules (tuned on the 30-matrix suite)."""

    #: Skip a padded blocking when est. stored elements / nnz exceeds this.
    max_padding_ratio: float = 2.0
    #: Skip a decomposed blocking when the estimated fraction of nonzeros
    #: in full blocks is below this.
    min_full_frac: float = 0.05
    #: Skip every BCSD variant when the estimated diagonal fill at the
    #: smallest probe is below this (no meaningful diagonal structure).
    min_diag_fill: float = 0.30
    #: Keep at most this many rectangular shapes (best est. working set).
    max_rect_shapes: int = 6
    #: Keep at most this many diagonal sizes.
    max_diag_sizes: int = 2

    def to_payload(self) -> dict:
        return {
            "max_padding_ratio": self.max_padding_ratio,
            "min_full_frac": self.min_full_frac,
            "min_diag_fill": self.min_diag_fill,
            "max_rect_shapes": self.max_rect_shapes,
            "max_diag_sizes": self.max_diag_sizes,
        }


@dataclass
class PruneDecision:
    """Which candidates survived pruning, and why the rest did not."""

    kept: tuple[Candidate, ...]
    n_candidates_total: int
    n_structures_total: int
    n_structures_kept: int
    #: structure label -> human-readable reason it was dropped.
    dropped: dict[str, str] = field(default_factory=dict)

    @property
    def n_candidates_kept(self) -> int:
        return len(self.kept)

    @property
    def candidate_fraction(self) -> float:
        if self.n_candidates_total == 0:
            return 1.0
        return self.n_candidates_kept / self.n_candidates_total


def _structure_label(kind: str, block) -> str:
    if isinstance(block, tuple):
        return f"{kind} {block[0]}x{block[1]}"
    if isinstance(block, int):
        return f"{kind} {block}"
    return kind


def _ws_per_nnz(fill: float, elems: int, precision: Precision) -> float:
    """Estimated stored bytes per true nonzero of a padded blocking.

    Values are padded up by ``1/fill``; one ``INDEX_BYTES`` column index is
    amortised over each block's ``elems`` stored cells.  This is the MEM
    model's objective, computable from features alone.
    """
    fill = max(fill, 1e-6)
    return precision.itemsize / fill + INDEX_BYTES / (fill * elems)


def prune_candidates(
    features: MatrixFeatures,
    candidates: tuple[Candidate, ...],
    config: PruneConfig = PruneConfig(),
    *,
    precision: Precision | str = Precision.DP,
) -> PruneDecision:
    """Cut ``candidates`` down using only ``features`` (no conversions)."""
    precision = Precision.coerce(precision)
    structures = unique_structures(candidates)
    keep: set[tuple] = set()
    dropped: dict[str, str] = {}

    # --- rectangular shapes (BCSR / BCSR-DEC) --------------------------- #
    rect_scores: dict[tuple[int, int], float] = {}
    for kind, block in structures:
        if kind not in ("bcsr", "bcsr_dec"):
            continue
        r, c = block
        fill = features.est_rect_fill(r, c)
        padding = 1.0 / max(fill, 1e-6)
        label = _structure_label(kind, block)
        if kind == "bcsr":
            if padding > config.max_padding_ratio:
                dropped[label] = (
                    f"est. fill {fill:.2f} implies {padding:.1f}x padding "
                    f"(> {config.max_padding_ratio:.1f}x)"
                )
                continue
            rect_scores.setdefault(
                (r, c), _ws_per_nnz(fill, r * c, precision)
            )
            keep.add((kind, block))
        else:  # bcsr_dec
            full = features.est_rect_full_frac(r, c)
            if full < config.min_full_frac:
                dropped[label] = (
                    f"est. full-block fraction {full:.2f} "
                    f"(< {config.min_full_frac:.2f}) — decomposition "
                    "degenerates to CSR"
                )
                continue
            rect_scores.setdefault(
                (r, c), _ws_per_nnz(fill, r * c, precision)
            )
            keep.add((kind, block))

    # Cap the surviving rectangular shapes to the lightest few.  Exact
    # score ties break on the shape itself, never on set order (which
    # follows the string hash seed).
    surviving_shapes = {
        block for kind, block in keep if kind in ("bcsr", "bcsr_dec")
    }
    if len(surviving_shapes) > config.max_rect_shapes:
        ranked = sorted(surviving_shapes, key=lambda b: (rect_scores[b], b))
        cut = set(ranked[config.max_rect_shapes:])
        for kind, block in structures:
            if (kind, block) in keep and block in cut:
                keep.discard((kind, block))
                dropped[_structure_label(kind, block)] = (
                    f"outside the top {config.max_rect_shapes} shapes by "
                    "estimated working set"
                )

    # --- diagonal sizes (BCSD / BCSD-DEC) ------------------------------- #
    diag_sizes = sorted({
        block for kind, block in structures if kind in ("bcsd", "bcsd_dec")
    })
    smallest_fill = (
        features.est_diag_fill(diag_sizes[0]) if diag_sizes else 1.0
    )
    diag_negligible = smallest_fill < config.min_diag_fill
    diag_reasons: dict[int, str] = {}
    diag_scored: list[tuple[float, int]] = []
    for b in diag_sizes:
        fill = features.est_diag_fill(b)
        padding = 1.0 / max(fill, 1e-6)
        if diag_negligible:
            diag_reasons[b] = (
                f"diagonal fill negligible (est. {smallest_fill:.2f} at "
                f"size {diag_sizes[0]} < {config.min_diag_fill:.2f})"
            )
        elif padding > config.max_padding_ratio:
            diag_reasons[b] = (
                f"est. diag fill {fill:.2f} implies {padding:.1f}x padding"
            )
        else:
            diag_scored.append((_ws_per_nnz(fill, b, precision), b))
    diag_scored.sort()
    diag_kept = [b for _, b in diag_scored[: config.max_diag_sizes]]
    for _, b in diag_scored[config.max_diag_sizes:]:
        diag_reasons[b] = (
            f"outside the top {config.max_diag_sizes} diagonal sizes by "
            "estimated working set"
        )
    for b, reason in diag_reasons.items():
        for kind in ("bcsd", "bcsd_dec"):
            if (kind, b) in structures:
                dropped[_structure_label(kind, b)] = reason
    for b in diag_kept:
        full = features.est_diag_full_frac(b)
        for kind, block in structures:
            if block != b or kind not in ("bcsd", "bcsd_dec"):
                continue
            if kind == "bcsd_dec" and full < config.min_full_frac:
                dropped[_structure_label(kind, b)] = (
                    f"est. full-diagonal fraction {full:.2f} "
                    f"(< {config.min_full_frac:.2f})"
                )
                continue
            keep.add((kind, block))

    # --- unconditional keeps -------------------------------------------- #
    for kind, block in structures:
        if kind in ("csr", "vbl"):
            keep.add((kind, block))

    kept = tuple(c for c in candidates if (c.kind, c.block) in keep)
    return PruneDecision(
        kept=kept,
        n_candidates_total=len(candidates),
        n_structures_total=len(structures),
        n_structures_kept=len({(c.kind, c.block) for c in kept}),
        dropped=dropped,
    )
