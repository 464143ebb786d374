"""The metric names, units and bounds of BENCHMARK.json, read from the checkout root."""

from __future__ import annotations

import json


def metrics(kind: str, path: str = "BENCHMARK.json") -> dict[str, dict]:
    """{name: entry} of the "end_to_end" or "per_layer" metrics, in file order."""
    with open(path) as fh:
        return {m["name"]: m for m in json.load(fh)[kind]}


def run_seconds(path: str = "BENCHMARK.json") -> int:
    with open(path) as fh:
        return json.load(fh)["run_seconds"]
