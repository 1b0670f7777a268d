"""Segmented similarity: SegSim and Cover (Sections 3.2.1-3.2.2, Eq. 1).

The paper's key similarity innovation.  Instead of matching the whole query
column string ``Q_l`` against each table field separately, ``Q_l`` is split
into a contiguous prefix and suffix; one part is pinned to a specific header
row of the column (``inSim``), the other gathers support from the rest of
the table (``outSim``): the title, the context, other header rows of the
column, other columns' headers in the same row, and frequent body tokens.

``outSim`` weighs matches by per-part reliabilities
``(p_T, p_C, p_Hc, p_Hr, p_B)`` and combines multi-part matches through a
noisy-OR (soft-max), so each extra match helps with exponentially decaying
influence.

``Cover`` is the same maximization with ``inSim`` replaced by the weighted
fraction of prefix tokens found in the header — the "query fraction matched"
feature.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..tables.table import WebTable
from ..text.tfidf import TermStatistics

__all__ = [
    "Reliabilities", "DEFAULT_RELIABILITIES", "TablePartIndex",
    "segmented_similarity", "unsegmented_similarity",
]

#: Part keys, in the paper's order {T, C, Hc, Hr, B}.
_PARTS = ("T", "C", "Hc", "Hr", "B")


@dataclass(frozen=True)
class Reliabilities:
    """Per-part match reliabilities p_i of Section 3.2.1."""

    title: float = 1.0
    context: float = 0.9
    other_header_rows: float = 0.5
    other_columns: float = 1.0
    body: float = 0.8

    def of(self, part: str) -> float:
        """Reliability of a part key in {T, C, Hc, Hr, B}."""
        return {
            "T": self.title, "C": self.context, "Hc": self.other_header_rows,
            "Hr": self.other_columns, "B": self.body,
        }[part]


#: The values the paper estimated empirically on its workload.
DEFAULT_RELIABILITIES = Reliabilities()


class TablePartIndex:
    """One table's part token sets, per (header row, column).

    A view over the table's :class:`~repro.tables.compiled.CompiledTable`:
    the parts are tokenized once per table object, not once per query, and
    nothing here depends on corpus statistics — IDF enters only where
    :func:`segmented_similarity` weighs the query tokens and the pinned
    header cell.
    """

    def __init__(self, table: WebTable) -> None:
        self.num_header_rows = table.num_header_rows
        self._compiled = table.compiled()
        #: ``header_tokens[r][c]`` -> token list of header cell (r, c)
        self.header_tokens = self._compiled.header_tokens

    def header_set(self, row: int, col: int) -> FrozenSet[str]:
        """Token set of header cell (row, col)."""
        return self._compiled.header_sets[row][col]

    def out_parts(self, row: int, col: int) -> Dict[str, FrozenSet[str]]:
        """The five out-part token sets for a pinned (row, col) header."""
        compiled = self._compiled
        return {
            "T": compiled.title_tokens,
            "C": compiled.context_tokens,
            "Hc": compiled.other_rows[row][col],
            "Hr": compiled.other_cols[row][col],
            "B": compiled.body_tokens,
        }


def _weights(tokens: Sequence[str], stats: Optional[TermStatistics]) -> List[float]:
    if stats is None:
        return [1.0] * len(tokens)
    return [stats.idf(t) for t in tokens]


def _cosine_to_set(
    tokens: Sequence[str],
    weights: Sequence[float],
    header: AbstractSet[str],
    header_tokens: Sequence[str],
    stats: Optional[TermStatistics],
) -> float:
    """TF-IDF cosine between a token sequence and a header token list."""
    if not tokens or not header_tokens:
        return 0.0
    # Proper TF-IDF vector norms: weight of term = tf * idf, so repeated
    # tokens contribute (count * idf)^2, not count * idf^2.
    q_counts = Counter(tokens)
    q_weight_by_tok = {t: w for t, w in zip(tokens, weights)}
    q_norm2 = sum(
        (cnt * q_weight_by_tok[t]) ** 2 for t, cnt in q_counts.items()  # reprolint: disable=R003 -- Counter insertion order is the query's token order, fixed by the input
    )
    h_counts = Counter(header_tokens)
    h_weight_by_tok = {
        t: w for t, w in zip(header_tokens, _weights(header_tokens, stats))
    }
    h_norm2 = sum(
        (cnt * h_weight_by_tok[t]) ** 2 for t, cnt in h_counts.items()  # reprolint: disable=R003 -- Counter insertion order is the header's token order, fixed by the input table
    )
    if q_norm2 <= 0 or h_norm2 <= 0:
        return 0.0
    dot = sum(
        (q_counts[t] * q_weight_by_tok[t]) * (h_counts[t] * h_weight_by_tok[t])
        for t in sorted(set(q_counts) & set(h_counts))
    )
    return dot / ((q_norm2**0.5) * (h_norm2**0.5))


@dataclass(frozen=True)
class SegScores:
    """Result of the segmented maximization for one (Q_l, tc) pair."""

    segsim: float
    cover: float


def segmented_similarity(
    query_tokens: Sequence[str],
    part_index: TablePartIndex,
    col: int,
    stats: Optional[TermStatistics] = None,
    reliabilities: Reliabilities = DEFAULT_RELIABILITIES,
) -> SegScores:
    """Compute SegSim and Cover for query column tokens vs table column.

    Maximizes Eq. 1 over all header rows ``r``, all contiguous prefix/suffix
    splits, and both orders (prefix->header or suffix->header), subject to
    the header part overlapping the pinned header cell.  Tables without
    header rows score zero (their support must come from PMI² or edges).
    """
    tokens = list(query_tokens)
    if not tokens or part_index.num_header_rows == 0:
        return SegScores(0.0, 0.0)

    weights = _weights(tokens, stats)
    total_norm2 = sum(w * w for w in weights)
    if total_norm2 <= 0:
        return SegScores(0.0, 0.0)

    m = len(tokens)
    best_seg = 0.0
    best_cover = 0.0

    for r in range(part_index.num_header_rows):
        header = part_index.header_set(r, col)
        if not header:
            continue
        header_tokens = part_index.header_tokens[r][col]
        parts = part_index.out_parts(r, col)

        # Enumerate contiguous splits; for split k either the length-k
        # prefix or the length-k suffix is pinned to the header and the
        # remainder scores against the rest of the table.
        for k in range(1, m + 1):
            for head, head_w, out, out_w in (
                (tokens[:k], weights[:k], tokens[k:], weights[k:]),
                (tokens[m - k:], weights[m - k:], tokens[: m - k], weights[: m - k]),
            ):
                if not set(head) & header:
                    continue
                head_norm2 = sum(w * w for w in head_w)
                out_norm2 = sum(w * w for w in out_w)

                in_sim = _cosine_to_set(head, head_w, header, header_tokens, stats)
                in_cover = (
                    sum(w * w for tok, w in zip(head, head_w) if tok in header)
                    / head_norm2
                    if head_norm2 > 0
                    else 0.0
                )

                out_sim = 0.0
                if out:
                    for tok, w in zip(out, out_w):
                        miss = 1.0
                        for part in _PARTS:
                            if tok in parts[part]:
                                miss *= 1.0 - reliabilities.of(part)
                        out_sim += (w * w / out_norm2) * (1.0 - miss)

                head_frac = head_norm2 / total_norm2
                out_frac = out_norm2 / total_norm2
                seg = head_frac * in_sim + out_frac * out_sim
                cov = head_frac * in_cover + out_frac * out_sim
                if seg > best_seg:
                    best_seg = seg
                if cov > best_cover:
                    best_cover = cov

    return SegScores(best_seg, best_cover)


def unsegmented_similarity(
    query_tokens: Sequence[str],
    part_index: TablePartIndex,
    col: int,
    stats: Optional[TermStatistics] = None,
) -> SegScores:
    """The baseline similarity of Section 5.2: plain cosine on the header.

    The whole of ``Q_l`` is matched against the column's concatenated header
    text; no segmentation, no out-of-header support.  Cover becomes the
    plain weighted coverage fraction.
    """
    tokens = list(query_tokens)
    if not tokens or part_index.num_header_rows == 0:
        return SegScores(0.0, 0.0)
    weights = _weights(tokens, stats)
    norm2 = sum(w * w for w in weights)
    header_tokens: List[str] = []
    for r in range(part_index.num_header_rows):
        header_tokens.extend(part_index.header_tokens[r][col])
    header = set(header_tokens)
    sim = _cosine_to_set(tokens, weights, header, header_tokens, stats)
    cover = (
        sum(w * w for tok, w in zip(tokens, weights) if tok in header) / norm2
        if norm2 > 0
        else 0.0
    )
    return SegScores(sim, cover)


def estimate_reliabilities(observations: Dict[str, Tuple[int, int]]) -> Reliabilities:
    """Re-estimate part reliabilities the way the paper describes.

    ``observations`` maps part key -> (correctly mapped columns with a match
    in that part, all columns with positive inSim and a match in that part).
    Parts with no observations keep their default.
    """
    values = {}
    defaults = DEFAULT_RELIABILITIES
    for part in _PARTS:
        correct, total = observations.get(part, (0, 0))
        values[part] = correct / total if total > 0 else defaults.of(part)
    return Reliabilities(
        title=values["T"],
        context=values["C"],
        other_header_rows=values["Hc"],
        other_columns=values["Hr"],
        body=values["B"],
    )
