"""Small-parameter smoke tests of the heavy experiment runners.

The full-size regenerations live under ``benchmarks/``; here each runner
executes with reduced meshes/steps so the unit suite covers the code
paths (table assembly, data dictionaries, CLI) quickly.
"""

import pytest

from repro import __main__ as cli
from repro.parallel import T3D
from repro.reporting.experiments import (
    run_advection_opt,
    run_agcm_timing_table,
    run_fig1,
    run_filtering_table,
    run_pointwise,
    run_sp2_supplementary,
)


class TestFig1Small:
    def test_runs_on_small_meshes(self):
        result = run_fig1(meshes=((2, 2), (2, 4)), nsteps=4)
        assert set(result.data) == {4, 8}
        for row in result.data.values():
            assert 0 < row["dynamics_fraction"] < 1
            assert 0 < row["filtering_fraction"] < 1
        assert "Figure 1" in result.render()


class TestAgcmTableSmall:
    def test_speedups_relative_to_first_mesh(self):
        result = run_agcm_timing_table(
            T3D, "fft-lb", meshes=((1, 1), (2, 2)), nsteps=4
        )
        assert result.data[(1, 1)]["speedup"] == pytest.approx(1.0)
        assert result.data[(2, 2)]["speedup"] > 1.5
        assert result.data[(2, 2)]["total"] < result.data[(1, 1)]["total"]


class TestFilteringTableSmall:
    def test_column_ordering_small(self):
        result = run_filtering_table(
            T3D, nlayers=4, meshes=((2, 2), (2, 4)), napps=1
        )
        for dims, row in result.data.items():
            assert row["convolution-ring"] > row["fft-lb"], dims

    def test_table_mentions_layers(self):
        result = run_filtering_table(T3D, nlayers=4, meshes=((2, 2),), napps=1)
        assert "2 x 2.5 x 4" in result.render()


class TestSp2Small:
    def test_new_beats_old(self):
        result = run_sp2_supplementary(meshes=((2, 2),), nsteps=4)
        per = result.data[(2, 2)]
        assert per["new"].dynamics < per["old"].dynamics


class TestSingleNodeStudiesSmall:
    """The Section-3.4 studies are priced on the node model, so two runs
    render the same bytes."""

    @pytest.mark.parametrize("runner, options", [
        (run_advection_opt, {"n": 10}),
        (run_pointwise, {"n": 9 * 64, "m": 9}),
    ], ids=["advection_opt", "pointwise"])
    def test_two_runs_are_identical(self, runner, options):
        first, second = runner(**options), runner(**options)
        assert first.render() == second.render()
        assert first.data == second.data
        assert set(first.data) == {"paragon", "t3d"}

    def test_pointwise_needs_whole_rows(self):
        with pytest.raises(ValueError, match="divisible"):
            run_pointwise(n=100, m=9)


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table8" in out and "fig4_6" in out

    def test_help(self, capsys):
        assert cli.main([]) == 0
        assert "Experiments:" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert cli.main(["table99"]) == 2

    def test_unknown_suggests_close_match(self, capsys):
        assert cli.main(["tables13"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'tables1_3'" in err
        assert "try 'list'" in err

    def test_typo_late_in_list_runs_nothing(self, capsys):
        # validation is up-front: the valid experiment must not run
        assert cli.main(["fig4_6", "fautls"]) == 2
        captured = capsys.readouterr()
        assert "did you mean 'faults'" in captured.err
        assert "regenerated" not in captured.out

    def test_run_one(self, capsys):
        assert cli.main(["fig4_6"]) == 0
        out = capsys.readouterr().out
        assert "pairwise" in out


@pytest.mark.faults
class TestFaultsExperiment:
    def test_overhead_matrix_and_straggler_table(self):
        from repro.reporting.experiments import run_faults

        result = run_faults(nsteps=6)
        assert len(result.data["overhead"]) == 9  # 3 scenarios x 3 intervals
        by_key = {
            (r["scenario"], r["checkpoint_every"]): r
            for r in result.data["overhead"]
        }
        assert by_key[("fault-free", 0)]["overhead_pct"] == pytest.approx(0.0)
        fail_cold = by_key[("drops + rank failure", 0)]
        fail_ckpt = by_key[("drops + rank failure", 2)]
        assert fail_cold["restarts"] == 1 and fail_ckpt["restarts"] == 1
        # checkpointing must beat re-running from step 0 after a failure
        assert fail_ckpt["total_elapsed"] < fail_cold["total_elapsed"]
        static, mitigated = result.data["straggler"]
        assert mitigated["imbalance"] < static["imbalance"]
        rendered = result.render()
        assert "Fault-tolerance overhead" in rendered
        assert "scheme 3" in rendered
