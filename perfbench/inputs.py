"""Seeded synthetic inputs: corpus files and a partial word-vector store.

Corpora are built only from the public `factgen.random_fact`, so they are
valid chart facts by construction. Every dataset holds several
visualizations and datasets spread over all ten domains, so all three
negative-sampling tiers (same dataset, same domain, anywhere) are non-empty.
The vector store covers a seeded half of the words the corpora use, so both
the in-store and the out-of-vocabulary lookup paths run.
"""

from __future__ import annotations

import json
import re

import numpy as np

from chartembed.corpus import DOMAINS, KINDS
from chartembed.factgen import random_fact
from chartembed.facts import fact_to_dict

WORD_DIM = 100
# Words no chart uses; they give the loader a store of realistic size to parse.
FILLER_WORDS = 1000
_WORD = re.compile(r"[0-9a-z]+")


def synthetic_corpus(
    rng: np.random.Generator, n_datasets: int, vis_per_dataset: int, charts_per_vis: int
) -> dict:
    """A corpus dict of n_datasets * vis_per_dataset visualizations.

    Dataset d lives in domain d mod 10 (after a seeded rotation), so twenty
    or more datasets give every domain at least two datasets.
    """
    rotation = int(rng.integers(len(DOMAINS)))
    visualizations = []
    # Datasets take turns, so a dataset's visualizations are not adjacent. The
    # order is the same for every seed: the cost of sorting the corpus
    # depends on it, and must not change with the seed.
    for v in range(vis_per_dataset):
        for d in range(n_datasets):
            domain = DOMAINS[(d + rotation) % len(DOMAINS)]
            vis_id = f"d{d:03d}-v{v:02d}"
            visualizations.append(
                {
                    "id": vis_id,
                    "dataset_id": f"d{d:03d}",
                    "domain": domain,
                    "kind": KINDS[int(rng.integers(len(KINDS)))],
                    "charts": [
                        {"chart_id": f"{vis_id}-c{c:02d}", "fact": fact_to_dict(random_fact(rng))}
                        for c in range(charts_per_vis)
                    ],
                }
            )
    return {"visualizations": visualizations}


def _strings(obj) -> list[str]:
    if isinstance(obj, str):
        return [obj]
    if isinstance(obj, dict):
        return [s for value in obj.values() for s in _strings(value)]
    if isinstance(obj, list):
        return [s for value in obj for s in _strings(value)]
    return []


def corpus_words(corpus: dict) -> list[str]:
    """Sorted lowercase words found in the string values of every fact."""
    words = set()
    for vis in corpus["visualizations"]:
        for chart in vis["charts"]:
            for text in _strings(chart["fact"]):
                words.update(_WORD.findall(text.lower()))
    return sorted(words)


def vector_lines(rng: np.random.Generator, words: list[str], coverage: float = 0.5) -> list[str]:
    """Store lines for a seeded `coverage` share of `words` plus filler words."""
    keep = rng.permutation(len(words))[: max(1, int(len(words) * coverage))]
    chosen = [words[i] for i in sorted(keep)]
    chosen += [f"filler{i:05d}" for i in range(FILLER_WORDS)]
    values = rng.standard_normal((len(chosen), WORD_DIM))
    return [
        word + " " + " ".join(repr(float(x)) for x in row)
        for word, row in zip(chosen, values)
    ]


def write_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def write_lines(lines: list[str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
