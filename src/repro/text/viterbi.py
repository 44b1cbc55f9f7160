"""Viterbi inference over a linear-chain CRF (Table 3).

Section 5.2 describes two macro-coordination styles for the Viterbi dynamic
program: a recursive-SQL / window-aggregate formulation (PostgreSQL ≥ 8.4
only) and a Python-UDF driver that iterates position by position (portable to
Greenplum, parallel over documents).  Both are reproduced here:

* :func:`viterbi` — in-memory dynamic programming over one sentence.
* :func:`viterbi_top_k` — the top-k variant the paper mentions.
* :func:`viterbi_sql` — the driver-style formulation: per-position factor
  scores are staged in a table, and each DP step is one SQL statement over
  that table joined with the previous step's partial paths, so all bulk work
  happens in the engine while Python only sequences the positions.

The DP-step statement is a three-way implicit join (``FROM factors f,
paths p, transitions t``) whose WHERE clause carries two cross-table
equality conjuncts; the engine's join planner (``docs/joins.md``) pushes
the single-table position filters below the join and executes the equality
conjuncts as build/probe hash joins, so each step visits O(F + P + T) rows
instead of materializing the O(F·P·T) Cartesian product the pre-join-layer
executor built.  The final ``ORDER BY score DESC LIMIT 1`` argmax rides the
packed-column top-k sort (``argpartition`` over the stored score column, no
full sort).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from .crf import LinearChainCRF

__all__ = ["viterbi", "viterbi_top_k", "viterbi_sql"]


def viterbi(model: LinearChainCRF, tokens: Sequence[str]) -> Tuple[List[str], float]:
    """Most likely label sequence and its unnormalized log-score."""
    token_features = model.encode_tokens(tokens)
    emissions = model.emission_scores(token_features)
    length, num_labels = emissions.shape
    if length == 0:
        return [], 0.0
    scores = np.full((length, num_labels), -np.inf)
    backpointers = np.zeros((length, num_labels), dtype=np.int64)
    scores[0] = model.start_weights + emissions[0]
    for position in range(1, length):
        candidate = scores[position - 1][:, None] + model.transition_weights
        backpointers[position] = np.argmax(candidate, axis=0)
        scores[position] = candidate[backpointers[position], np.arange(num_labels)] + emissions[position]
    best_last = int(np.argmax(scores[-1]))
    best_score = float(scores[-1, best_last])
    path = [best_last]
    for position in range(length - 1, 0, -1):
        path.append(int(backpointers[position, path[-1]]))
    path.reverse()
    return model.label_sequence(path), best_score


def viterbi_top_k(model: LinearChainCRF, tokens: Sequence[str], k: int = 3) -> List[Tuple[List[str], float]]:
    """The ``k`` highest-scoring labelings (list-Viterbi)."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    token_features = model.encode_tokens(tokens)
    emissions = model.emission_scores(token_features)
    length, num_labels = emissions.shape
    if length == 0:
        return []
    # beams[t][label] = list of (score, path) of size <= k.
    beams: List[List[List[Tuple[float, Tuple[int, ...]]]]] = []
    first = [
        [(float(model.start_weights[label] + emissions[0, label]), (label,))]
        for label in range(num_labels)
    ]
    beams.append(first)
    for position in range(1, length):
        level: List[List[Tuple[float, Tuple[int, ...]]]] = []
        for label in range(num_labels):
            candidates: List[Tuple[float, Tuple[int, ...]]] = []
            for previous_label in range(num_labels):
                for score, path in beams[position - 1][previous_label]:
                    new_score = (
                        score
                        + float(model.transition_weights[previous_label, label])
                        + float(emissions[position, label])
                    )
                    candidates.append((new_score, path + (label,)))
            level.append(heapq.nlargest(k, candidates, key=lambda item: item[0]))
        beams.append(level)
    final_candidates: List[Tuple[float, Tuple[int, ...]]] = []
    for label in range(num_labels):
        final_candidates.extend(beams[-1][label])
    best = heapq.nlargest(k, final_candidates, key=lambda item: item[0])
    return [(model.label_sequence(path), score) for score, path in best]


def viterbi_sql(
    database,
    model: LinearChainCRF,
    tokens: Sequence[str],
    *,
    temp_prefix: str = "viterbi",
) -> Tuple[List[str], float]:
    """Driver-style Viterbi: the DP table lives in the database.

    One table holds per-position, per-label factor scores; a second table
    holds the best partial-path score per label, rebuilt once per position by
    a single SQL statement that joins it with the factor table (the
    "Python UDF that uses iterations to drive the recursion" implementation
    from the paper).  Backpointers are also stored in a table so the final
    path reconstruction is a sequence of small lookups.
    """
    token_features = model.encode_tokens(tokens)
    emissions = model.emission_scores(token_features)
    length, num_labels = emissions.shape
    if length == 0:
        return [], 0.0

    factors = database.unique_temp_name(f"{temp_prefix}_factors")
    database.create_table(
        factors,
        [("position", "integer"), ("label", "integer"), ("emission", "double precision")],
        temporary=True,
    )
    database.load_rows(
        factors,
        [
            (position, label, float(emissions[position, label]))
            for position in range(length)
            for label in range(num_labels)
        ],
    )
    transitions = database.unique_temp_name(f"{temp_prefix}_transitions")
    database.create_table(
        transitions,
        [("prev_label", "integer"), ("label", "integer"), ("weight", "double precision")],
        temporary=True,
    )
    database.load_rows(
        transitions,
        [
            (previous, label, float(model.transition_weights[previous, label]))
            for previous in range(num_labels)
            for label in range(num_labels)
        ],
    )

    paths = database.unique_temp_name(f"{temp_prefix}_paths")
    database.create_table(
        paths,
        [("position", "integer"), ("label", "integer"), ("score", "double precision"),
         ("prev_label", "integer")],
        temporary=True,
    )
    database.execute(
        f"INSERT INTO {paths} SELECT position, label, emission + %(start)s[label + 1], -1 "
        f"FROM {factors} WHERE position = 0",
        {"start": model.start_weights},
    )

    for position in range(1, length):
        # One SQL statement per DP step: extend every partial path by every
        # label and keep the max per new label.
        database.execute(
            f"INSERT INTO {paths} "
            f"SELECT f.position, f.label, max(p.score + t.weight + f.emission), -1 "
            f"FROM {factors} f, {paths} p, {transitions} t "
            f"WHERE f.position = %(pos)s AND p.position = %(prev)s "
            f"AND t.prev_label = p.label AND t.label = f.label "
            f"GROUP BY f.position, f.label",
            {"pos": position, "prev": position - 1},
        )
        # Record the argmax backpointer per label.
        best_rows = database.query_dicts(
            f"SELECT f.label AS label, p.label AS prev_label, "
            f"p.score + t.weight + f.emission AS score "
            f"FROM {factors} f, {paths} p, {transitions} t "
            f"WHERE f.position = %(pos)s AND p.position = %(prev)s "
            f"AND t.prev_label = p.label AND t.label = f.label",
            {"pos": position, "prev": position - 1},
        )
        best_by_label: dict = {}
        for row in best_rows:
            label = int(row["label"])
            if label not in best_by_label or row["score"] > best_by_label[label][0]:
                best_by_label[label] = (float(row["score"]), int(row["prev_label"]))
        for label, (_, prev_label) in best_by_label.items():
            database.execute(
                f"UPDATE {paths} SET prev_label = %(prev_label)s "
                f"WHERE position = %(pos)s AND label = %(label)s",
                {"prev_label": prev_label, "pos": position, "label": label},
            )

    final_rows = database.query_dicts(
        f"SELECT label, score FROM {paths} WHERE position = %(pos)s ORDER BY score DESC LIMIT 1",
        {"pos": length - 1},
    )
    best_label = int(final_rows[0]["label"])
    best_score = float(final_rows[0]["score"])
    path = [best_label]
    for position in range(length - 1, 0, -1):
        previous = database.query_scalar(
            f"SELECT prev_label FROM {paths} WHERE position = %(pos)s AND label = %(label)s",
            {"pos": position, "label": path[-1]},
        )
        path.append(int(previous))
    path.reverse()

    for table in (factors, transitions, paths):
        database.drop_table(table, if_exists=True)
    return model.label_sequence(path), best_score
