"""The benchmark's traced run needs every entry point its layer metrics
name, and each workload must still run at its warm-up size.  A deleted or
renamed entry point, suite or size parameter shows here first."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads
    return spans, workloads


def test_required_entry_points_resolve(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(spans.REQUIRED) <= set(tracer.entry_points)


@pytest.mark.parametrize("name", ["cli-sample", "batch-routes", "spectrum-scalar",
                                  "verify-all"])
def test_workload_warmup_runs(bench, name, tmp_path):
    _, workloads = bench
    workloads.WORKLOADS[name].warmup(0, str(tmp_path))


def test_cli_warmup_commands_exit_zero(bench, tmp_path):
    # the workload's warm-up turns a failing command into a return value and
    # drops it, so its exit codes are checked here
    _, workloads = bench
    for kind, args in workloads.CLI_WARMUP.items():
        assert workloads._cli_call(kind, args, 0, str(tmp_path / f"{kind}.csv")) == 0, kind
