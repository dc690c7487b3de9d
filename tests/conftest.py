import sys
from pathlib import Path

import pytest

# tests import the repository's top-level modules (__ray_entry__, tools)
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tools.build_proj_db import REF as REFERENCE  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "requires_reference: replays PROJ's own test corpus "
        "(gie/GIGS vectors, CLI yaml goldens, test grids)")


def pytest_collection_modifyitems(config, items):
    if REFERENCE.is_dir():
        return
    skip = pytest.mark.skip(
        reason=f"PROJ reference corpus {REFERENCE} is absent")
    for item in items:
        if "requires_reference" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session", autouse=True)
def _quiet_ray_data():
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    yield
