"""Shared fixtures and graph factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import OracleConfig
from repro.core.oracle import VicinityOracle
from repro.core.reference import build_reference_index
from repro.datasets.social import generate
from repro.graph.builder import (
    complete_graph,
    cycle_graph,
    graph_from_arrays,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.components import largest_component


def pytest_sessionstart(session):
    """Compile the native kernel tier once, before collection.

    The native suites' ``skipif`` markers are evaluated at collection
    time, so a fixture would run too late: this hook (re)builds the
    extension whenever a C compiler is on hand, so a local run covers
    both kernel tiers against the current ``kernels.c`` — ``build()``
    is a no-op when the artifact is newer than its source.  Without a
    compiler it does nothing and those suites skip, which is what the
    pure-Python CI job relies on.
    """
    from repro.core import _native
    from repro.core._native import build

    if build.find_compiler() is None:
        return
    try:
        build.build()
    except RuntimeError as exc:
        print(f"native kernel build skipped: {exc}")
    _native._reset_loader_state()


def reference_twin(index):
    """The per-node reference build of ``index``'s graph, config and ``L``.

    Parity suites compare the offline build against this, never against
    a second run of the same builder.
    """
    return build_reference_index(
        index.graph, index.config, landmarks=index.landmarks
    )


def random_graph(n: int, m: int, seed: int = 0, *, weighted: bool = False):
    """A reproducible random multigraph input canonicalised to CSR."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    weights = rng.uniform(0.5, 4.0, size=m) if weighted else None
    return graph_from_arrays(src, dst, n=n, weights=weights)


def random_connected_graph(n: int, m: int, seed: int = 0, *, weighted: bool = False):
    """Largest component of :func:`random_graph` (paper's setting)."""
    graph, _ = largest_component(random_graph(n, m, seed, weighted=weighted))
    return graph


@pytest.fixture(scope="session")
def social_graph():
    """A small LiveJournal stand-in shared by the heavier tests."""
    return generate("livejournal", scale=0.0004, seed=42)


@pytest.fixture(scope="session")
def social_oracle(social_graph):
    """A built oracle (paper-exact profile) on the social graph."""
    config = OracleConfig(alpha=4.0, seed=7, fallback="bidirectional")
    return VicinityOracle.build(social_graph, config=config)


@pytest.fixture(
    params=["path", "cycle", "star", "grid", "complete"], scope="module"
)
def toy_graph(request):
    """A parametrised family of deterministic toy graphs."""
    return {
        "path": path_graph(12),
        "cycle": cycle_graph(9),
        "star": star_graph(10),
        "grid": grid_graph(4, 5),
        "complete": complete_graph(7),
    }[request.param]
