"""Placement lock: the exact mapping every temporal mapper produces.

The golden fixture locks only II, cycles and energy, and the result store
holds only metrics, so a change to the placement search that moved a node
or a route without moving a metric would go unnoticed.  This test hashes,
per cell, the II, the sorted placement, every route's steps and bypass
flag, and the search's attempt and routing-failure counts, and compares
them against ``tests/data/mapping_digests.json``.

Regenerate the fixture only for a deliberate change of the search::

    PYTHONPATH=src python tests/test_mapping_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.eval.harness import _seed_for, build_arch
from repro.mapping.engine import map_kernel
from repro.workloads import get_dfg

FIXTURE = Path(__file__).parent / "data" / "mapping_digests.json"

#: (workload, arch key, mapper key).  The Plaid cells include a Plaid-ML
#: fabric (``plaid-ml``), Figure 17's 3x3 fabric (``plaid3x3``) and cells
#: that escalate past their minimum II (``gemm_u2``, ``gesum_u2``); the
#: ``st`` cells cover both list-scheduled placers.
CELLS = [
    ("gemm_u2", "plaid", "plaid"),
    ("gesum_u2", "plaid", "plaid"),
    ("atax_u4", "plaid", "plaid"),
    ("bicg_u2", "plaid", "plaid"),
    ("doitgen_u2", "plaid", "plaid"),
    ("durbin_u2", "plaid", "plaid"),
    ("gemver_u4", "plaid", "plaid"),
    ("conv3x3", "plaid", "plaid"),
    ("jacobi_u4", "plaid", "plaid"),
    ("atax_u2", "plaid-ml", "plaid"),
    ("gemm_u4", "plaid3x3", "plaid"),
    ("seidel_u2", "plaid3x3", "plaid"),
    ("atax_u4", "st", "pathfinder"),
    ("gemm_u4", "st", "pathfinder"),
    ("atax_u4", "st", "sa"),
    ("gemver_u2", "st", "sa"),
]


def cell_id(workload: str, arch_key: str, mapper: str) -> str:
    return f"{workload}/{arch_key}/{mapper}"


def mapping_digest(workload: str, arch_key: str, mapper: str) -> str:
    """sha256 of one cell's II, placement, routes and search counts."""
    mapping = map_kernel(mapper, get_dfg(workload), build_arch(arch_key),
                         lambda key: _seed_for(workload, arch_key, key))
    routes = [
        [index, route.bypass,
         [[step.kind, list(step.resource), step.cycle]
          for step in route.steps]]
        for index, route in sorted(mapping.routes.items())
    ]
    payload = [
        mapping.ii,
        sorted([node, list(spot)] for node, spot in mapping.placement.items()),
        routes,
        mapping.stats.attempts,
        mapping.stats.routing_failures,
    ]
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_id(*cell))
def test_mapping_matches_locked_digest(cell):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert mapping_digest(*cell) == expected[cell_id(*cell)]


def test_fixture_covers_exactly_the_cells():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(cell_id(*cell) for cell in CELLS)


if __name__ == "__main__":
    digests = {cell_id(*cell): mapping_digest(*cell) for cell in CELLS}
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
