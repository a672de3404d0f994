"""Each workload at a tiny size: the program's outputs pass the reference
check, and equal seeds give byte-identical outputs."""

import pytest

import workloads
from morphlex.cli import main as cli_main


def run_round(name, seed, work, capsys):
    workload = workloads.WORKLOADS[name]
    work.mkdir()
    world = workload.build(seed, str(work))
    expected = workload.expect(world, workloads.make_reference(world))
    out = work / "round"
    out.mkdir()
    capsys.readouterr()
    assert cli_main(workload.args(world, str(out), seed)) == 0
    rnd = workloads.Round(traced=False)
    workload.check(world, expected, rnd, str(out), capsys.readouterr().out)
    return rnd


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_the_reference_check(name, tiny, tmp_path, capsys):
    first = run_round(name, 3, tmp_path / "a", capsys)
    second = run_round(name, 3, tmp_path / "b", capsys)
    assert first.problems == [] and first.failed == 0
    assert first.forms + first.items > 0
    assert first.sha256 == second.sha256
