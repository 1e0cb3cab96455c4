"""Fixtures shared across the test packages."""

import pytest


@pytest.fixture()
def short_serve_stage(monkeypatch):
    """Shrink ``repro bench``'s serving stage to one fast rate point.

    At its real settings the stage sleeps through ~15 s of Poisson
    arrivals (24 requests at 2 and at 8 episodes/s).
    """
    from repro.experiments import bench

    monkeypatch.setattr(bench, "SERVE_RATES", (200.0,))
    monkeypatch.setattr(bench, "SERVE_REQUESTS", 3)
