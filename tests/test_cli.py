"""CLI tests (direct main() invocation, no subprocess)."""

import json

import pytest

from repro.cli import main
from repro.experiments import paper_taskset
from repro.model import taskset_to_json


@pytest.fixture
def ts_file(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text(taskset_to_json(paper_taskset()))
    return str(path)


class TestAnalyze:
    def test_analyze_ok(self, ts_file, capsys):
        assert main(["analyze", ts_file]) == 0
        out = capsys.readouterr().out
        assert "13 tasks" in out
        assert "FT[0]" in out

    def test_analyze_rm(self, ts_file, capsys):
        assert main(["analyze", ts_file, "--alg", "RM"]) == 0


class TestDesign:
    def test_design_human_output(self, ts_file, capsys):
        assert main(["design", ts_file, "--otot", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "min-overhead-bandwidth" in out
        assert "2.96" in out  # the paper period

    def test_design_json_output(self, ts_file, capsys):
        assert main(["design", ts_file, "--otot", "0.05", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["period"] == pytest.approx(2.966, abs=2e-3)
        assert set(data["usable"]) == {"FT", "FS", "NF"}

    def test_design_max_slack(self, ts_file, capsys):
        assert main(
            ["design", ts_file, "--otot", "0.05", "--goal", "max-slack"]
        ) == 0
        assert "max-slack" in capsys.readouterr().out

    def test_design_infeasible_overhead(self, ts_file, capsys):
        assert main(["design", ts_file, "--otot", "0.9"]) == 1
        assert "failed" in capsys.readouterr().out


class TestRegion:
    def test_region_plot_and_points(self, ts_file, capsys):
        assert main(["region", ts_file, "--otot", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "P (period)" in out
        assert "max admissible Otot" in out


class TestSimulate:
    def test_simulate_clean(self, ts_file, capsys):
        assert main(
            ["simulate", ts_file, "--otot", "0.05", "--cycles", "30"]
        ) == 0
        assert "0 deadline misses" in capsys.readouterr().out

    def test_simulate_with_faults(self, ts_file, capsys):
        rc = main(
            [
                "simulate", ts_file, "--otot", "0.05", "--cycles", "30",
                "--fault-rate", "0.05", "--seed", "1",
            ]
        )
        assert rc == 0
        assert "faults injected" in capsys.readouterr().out


def exit_of(argv, capsys):
    """``(status, stderr lines)`` of ``repro argv`` as the interpreter ends
    it: a ``SystemExit`` message goes to stderr with status 1. Any other
    exception escapes, and fails the test as a traceback would."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    code, err = exc.value.code, capsys.readouterr().err
    if isinstance(code, str):
        code, err = 1, err + code + "\n"
    return code, err.splitlines()


BAD_TASKSETS = {
    "wcet-over-period": '{"tasks": [{"name": "a", "wcet": 12, "period": 10}]}',
    "jitter": '{"tasks": [{"name": "a", "wcet": 1, "period": 10, "jitter": 7}]}',
    "not-json": "{not json",
    "not-an-object": "[1, 2]",
    "task-not-an-object": '{"tasks": [1]}',
    "missing-field": '{"tasks": [{"name": "a", "period": 10}]}',
    "wcet-not-a-number": '{"tasks": [{"name": "a", "wcet": "x", "period": 10}]}',
    "missing": None,
}


class TestBadInput:
    """Bad input ends in one stderr line naming its source, no traceback."""

    @pytest.mark.parametrize("command", ["analyze", "design", "region", "simulate"])
    @pytest.mark.parametrize("case", sorted(BAD_TASKSETS))
    def test_bad_taskset_file(self, command, case, tmp_path, capsys):
        path = tmp_path / f"{case}.json"
        if BAD_TASKSETS[case] is not None:
            path.write_text(BAD_TASKSETS[case])
        status, err = exit_of([command, str(path)], capsys)
        assert status != 0
        assert len(err) == 1
        assert err[0].startswith(f"{command}: {path}: ")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["simulate", "--cycles", "0"], "--cycles"),
            (["simulate", "--cycles", "-5"], "--cycles"),
            (["simulate", "--fault-rate", "-1"], "--fault-rate"),
            (["region", "--n", "1"], "--n"),
            (["region", "--p-max", "-1"], "--p-max"),
            (["region", "--width", "0"], "--width"),
            (["design", "--otot", "-1"], "--otot"),
        ],
    )
    def test_out_of_range_argument(self, argv, option, ts_file, capsys):
        status, err = exit_of([argv[0], ts_file, *argv[1:]], capsys)
        assert status != 0
        assert not any("Traceback" in line for line in err)
        assert err[-1].startswith(f"repro {argv[0]}: error: argument {option}: ")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["campaign", "sched", "--workers", "0"], "--workers"),
            (["campaign", "sched", "--workers", "-3", "--batch", "-2"],
             "--workers"),
            (["campaign", "sched", "--batch", "0"], "--batch"),
            (["campaign", "sched", "--batch", "-2"], "--batch"),
            # --port -1 also ends a run that would accept the workers
            (["serve", "--workers", "0", "--port", "-1"], "--workers"),
            (["serve", "--port", "-1"], "--port"),
            (["serve", "--port", "70000"], "--port"),
        ],
    )
    def test_out_of_range_runner_option(self, argv, option, capsys):
        if argv[0] == "campaign":
            argv = argv + ["--axis", "rep=0", "--no-progress"]
        status, err = exit_of(argv, capsys)
        assert status == 2
        assert not any("Traceback" in line for line in err)
        assert err[-1].startswith(f"repro {argv[0]}: error: argument {option}: ")


class TestPaper:
    def test_paper_command(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "3.176" in out and "Table 2" in out


class TestCampaign:
    def test_table2_preset(self, capsys):
        assert main(["campaign", "table2", "--workers", "1", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "(b) length" in out
        assert "2.966" in out

    def test_figure4_preset(self, capsys):
        assert main(["campaign", "figure4", "--workers", "1", "--no-progress"]) == 0
        assert "3.177" in capsys.readouterr().out

    def test_sched_preset_with_axes_and_out(self, tmp_path, capsys):
        out_file = tmp_path / "points.json"
        args = [
            "campaign", "sched",
            "--axis", "u_total=0.5,2.5",
            "--axis", "n=6",
            "--axis", "rep=0,1",
            "--seed", "9",
            "--no-progress",
            "--out", str(out_file),
        ]
        assert main(args + ["--workers", "1"]) == 0
        text = capsys.readouterr().out
        assert "acceptance ratios" in text
        data = json.loads(out_file.read_text())
        assert len(data) == 4
        assert all("spec" in row and "result" in row for row in data)

    def test_out_identical_across_worker_counts_and_batch_sizes(self, tmp_path):
        outs = []
        for workers, batch in (("1", "1"), ("2", "1"), ("2", "3"), ("2", "64")):
            out_file = tmp_path / f"w{workers}-b{batch}.json"
            assert main([
                "campaign", "sched",
                "--axis", "u_total=0.5,1.5", "--axis", "n=6", "--axis", "rep=0,1",
                "--seed", "3", "--workers", workers, "--batch", batch,
                "--no-progress", "--out", str(out_file),
            ]) == 0
            outs.append(out_file.read_text())
        assert len(set(outs)) == 1

    def test_stats_line_reports_batch_size(self, tmp_path, capsys):
        assert main([
            "campaign", "sched",
            "--axis", "u_total=0.5", "--axis", "n=6", "--axis", "rep=0,1",
            "--workers", "1", "--batch", "2", "--no-progress",
        ]) == 0
        assert "x batch 2" in capsys.readouterr().err

    def test_json_output(self, capsys):
        assert main([
            "campaign", "faults", "--axis", "rate=0.05", "--axis", "rep=0",
            "--workers", "1", "--no-progress", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["spec"]["experiment"] == "fault-injection"
        assert data[0]["result"]["ft_misses"] == 0

    def test_axis_rejected_for_paper_presets(self):
        with pytest.raises(SystemExit):
            main(["campaign", "table2", "--axis", "otot=0.1", "--no-progress"])

    def test_preset_flag_form(self, capsys):
        assert main(
            ["campaign", "--preset", "table2", "--workers", "1", "--no-progress"]
        ) == 0
        assert "(b) length" in capsys.readouterr().out

    def test_missing_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--workers", "1", "--no-progress"])

    def test_conflicting_presets_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "table2", "--preset", "figure4", "--no-progress"])


WEIGHTED_TINY = [
    "--axis", "u_total=0.6,1.8", "--axis", "n=6",
    "--axis", "period_hyperperiod=720.0", "--axis", "rep=0,1",
    "--axis", "rate=0.05",
]


class TestWeightedCampaign:
    def test_renders_weighted_curves(self, capsys):
        assert main(
            ["campaign", "weighted", *WEIGHTED_TINY, "--workers", "1",
             "--no-progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "weighted schedulability" in out
        assert "weighted fault coverage" in out
        assert "summary:" in out

FAULTSPACE_TINY = [
    "--axis", "u_total=0.8", "--axis", "rate=0.02,0.05",
    "--axis", "scenario=poisson,bursty,permanent", "--axis", "rep=0,1",
    "--axis", "n=6", "--axis", "cycles=10",
]


class TestFaultspaceCampaign:
    def test_renders_outcome_curves_and_intervals(self, capsys):
        assert main(
            ["campaign", "faultspace", *FAULTSPACE_TINY, "--workers", "1",
             "--seed", "5", "--no-progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "fault outcome shares (Wilson 95% CIs)" in out
        assert "FT-miss / silent-corruption probability" in out
        for scenario in ("poisson", "bursty", "permanent"):
            assert scenario in out
        assert "per-mode outcome taxonomy" in out

    def test_scenario_flag_narrows_the_axis(self, capsys):
        assert main(
            ["campaign", "faultspace", *FAULTSPACE_TINY,
             "--scenario", "permanent", "--workers", "1", "--seed", "5",
             "--no-progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "permanent" in out
        assert "poisson" not in out and "bursty" not in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["campaign", "faultspace", "--scenario", "cosmic",
                 "--no-progress"]
            )

    def test_scenario_rejected_for_other_presets(self):
        with pytest.raises(SystemExit):
            main(
                ["campaign", "sched", "--scenario", "poisson", "--no-progress"]
            )

SCHED_TINY = ["--axis", "u_total=0.5,1.5", "--axis", "n=8", "--axis", "rep=0,1,2"]


class TestShardMerge:
    def test_default_shard_state_paths_under_cache_dir(self, tmp_path, capsys):
        """--cache-dir gives every shard its own snapshot; merging them
        reproduces the full run's default snapshot."""
        cache = str(tmp_path / "cache")
        base = [
            "campaign", "sched", *SCHED_TINY, "--workers", "1",
            "--seed", "7", "--no-progress", "--cache-dir", cache,
        ]
        for i in range(3):
            assert main(base + ["--shard", f"{i}/3"]) == 0
        assert main(base) == 0
        aggregates = tmp_path / "cache" / "aggregates"
        shard_files = sorted(str(p) for p in aggregates.glob("*shard*of3.json"))
        full_files = [
            p for p in aggregates.glob("*.json") if "shard" not in p.name
        ]
        assert len(shard_files) == 3 and len(full_files) == 1
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert main(["merge", *shard_files, "--out", str(merged)]) == 0
        assert "3 shard snapshot(s)" in capsys.readouterr().err
        assert merged.read_bytes() == full_files[0].read_bytes()

    def test_shard_tag_in_stats_line(self, tmp_path, capsys):
        assert main(
            ["campaign", "sched", *SCHED_TINY, "--workers", "1",
             "--no-progress", "--shard", "0/2",
             "--state", str(tmp_path / "s.json")]
        ) == 0
        assert "shard 0/2:" in capsys.readouterr().err

    def test_sharded_rerun_resumes_from_snapshot(self, tmp_path, capsys):
        """Shard runs stay streaming-only (no row collection), so a re-run
        skips every snapshotted point instead of recomputing the shard."""
        args = [
            "campaign", "sched", *SCHED_TINY, "--workers", "1",
            "--no-progress", "--shard", "0/2",
            "--state", str(tmp_path / "s.json"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "0 computed" in err
        assert "aggregate: 0 folded" in err

    def test_merge_reports_missing_shard(self, tmp_path, capsys):
        base = [
            "campaign", "sched", *SCHED_TINY, "--workers", "1",
            "--seed", "7", "--no-progress",
        ]
        states = [str(tmp_path / f"s{i}.json") for i in range(2)]
        for i, state in enumerate(states):
            assert main(base + ["--shard", f"{i}/3", "--state", state]) == 0
        capsys.readouterr()
        assert main(["merge", *states, "--out", str(tmp_path / "m.json")]) == 1
        assert "missing" in capsys.readouterr().out
        assert not (tmp_path / "m.json").exists()

    def test_merge_allow_partial_previews_missing_shards(self, tmp_path, capsys):
        """The deliberate escape hatch: 2 of 3 shards preview-merge into a
        snapshot marked partial, while the default path (above) refuses."""
        base = [
            "campaign", "sched", *SCHED_TINY, "--workers", "1",
            "--seed", "7", "--no-progress",
        ]
        states = [str(tmp_path / f"s{i}.json") for i in range(2)]
        for i, state in enumerate(states):
            assert main(base + ["--shard", f"{i}/3", "--state", state]) == 0
        capsys.readouterr()
        preview = tmp_path / "preview.json"
        assert main(
            ["merge", *states, "--allow-partial", "--out", str(preview)]
        ) == 0
        captured = capsys.readouterr()
        assert "PARTIAL PREVIEW" in captured.err
        assert "[2]" in captured.err  # names the missing shard
        snap = json.loads(preview.read_text())
        assert snap["partial"] is True
        assert snap["missing_shards"] == [2]
        # a preview that is partial only because a shard is incomplete
        # names that reason instead of claiming "missing shards []"
        incomplete = json.loads((tmp_path / "s0.json").read_text())
        incomplete["folded"] = incomplete["folded"][:-1]
        (tmp_path / "s0.json").write_text(json.dumps(incomplete))
        states3 = states + [str(tmp_path / "s2.json")]
        assert main(
            base + ["--shard", "2/3", "--state", states3[2]]
        ) == 0
        capsys.readouterr()
        assert main(["merge", *states3, "--allow-partial"]) == 0
        assert "incomplete shard" in capsys.readouterr().err
        # the preview renders like any aggregate, but cannot be re-merged
        capsys.readouterr()
        assert main(["merge", str(preview), "--allow-partial"]) == 1
        assert "preview" in capsys.readouterr().out

    def test_merge_allow_partial_on_complete_set_is_canonical(self, tmp_path, capsys):
        base = [
            "campaign", "sched", *SCHED_TINY, "--workers", "1",
            "--seed", "7", "--no-progress",
        ]
        states = [str(tmp_path / f"s{i}.json") for i in range(3)]
        for i, state in enumerate(states):
            assert main(base + ["--shard", f"{i}/3", "--state", state]) == 0
        strict, permissive = tmp_path / "strict.json", tmp_path / "perm.json"
        assert main(["merge", *states, "--out", str(strict)]) == 0
        assert main(
            ["merge", *states, "--allow-partial", "--out", str(permissive)]
        ) == 0
        assert strict.read_bytes() == permissive.read_bytes()

    def test_merge_without_out_prints_snapshot(self, tmp_path, capsys):
        state = str(tmp_path / "s.json")
        assert main(
            ["campaign", "sched", *SCHED_TINY, "--workers", "1",
             "--no-progress", "--state", state]
        ) == 0
        capsys.readouterr()
        assert main(["merge", state]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["shard"]["count"] == 1

    def test_bad_shard_selector_rejected(self):
        for bad in ("3/3", "x/2", "1"):
            with pytest.raises(SystemExit):
                main(["campaign", "sched", "--shard", bad,
                      "--state", "/tmp/unused.json"])

    def test_shard_without_snapshot_destination_rejected(self):
        """A shard run's only output is its snapshot; running one with
        nowhere to persist it would silently discard the work."""
        with pytest.raises(SystemExit, match="--state or --cache-dir"):
            main(["campaign", "sched", *SCHED_TINY, "--shard", "0/2",
                  "--no-progress"])

    def test_sharded_paper_preset_skips_rendering(self, tmp_path, capsys):
        """table2/figure4 renderers need the full point set; a shard run
        must not crash on the partial aggregate after computing it."""
        assert main(
            ["campaign", "table2", "--workers", "1", "--no-progress",
             "--shard", "0/2", "--state", str(tmp_path / "t2.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "repro merge" in out
        assert (tmp_path / "t2.json").exists()

    def test_failed_merge_leaves_no_out_file(self, tmp_path, capsys):
        """--preset validation runs before --out is written: a failed merge
        must not leave a plausible-looking snapshot behind."""
        state = str(tmp_path / "s.json")
        assert main(
            ["campaign", "sched", *SCHED_TINY, "--workers", "1",
             "--no-progress", "--state", state]
        ) == 0
        capsys.readouterr()
        out_file = tmp_path / "m.json"
        assert main(
            ["merge", state, "--out", str(out_file), "--preset", "weighted"]
        ) == 1
        assert "config digest mismatch" in capsys.readouterr().out
        assert not out_file.exists()


# Pre-refactor golden snapshots: the --strategy grid path must keep
# producing these bytes forever (the PR 6 acceptance criterion). The
# digests were recorded from the seed revision before the PointSource
# refactor landed.
WEIGHTED_GOLDEN = [
    "campaign", "weighted", "--axis", "u_total=0.8,1.6", "--axis", "n=8",
    "--axis", "period_hyperperiod=720.0", "--axis", "rep=0,1",
    "--axis", "rate=0.02", "--workers", "1", "--seed", "3", "--no-progress",
]
WEIGHTED_GOLDEN_SHA = (
    "76632870150036f760e79fe63453869c486c0065b13dd895ce6f973a36edc313"
)
WEIGHTED_GOLDEN_SHARD_SHAS = (
    "df6fc3189118dddc4a9f3f27db56579e3cb6baa819be793e38da5e819e3c69ce",
    "edcb1b0451e51702ba0f76f3507e4b934bb4042415b6b14b9e63497fd02f3482",
)
FAULTSPACE_GOLDEN = [
    "campaign", "faultspace", "--axis", "u_total=0.8",
    "--axis", "rate=0.02,0.1", "--axis", "rep=0,1", "--scenario", "poisson",
    "--workers", "1", "--seed", "7", "--no-progress",
]
FAULTSPACE_GOLDEN_SHA = (
    "a1c1d09b8a20d234ceaa27135adf02d60597b6fcff7ae53c27f6219c331df387"
)

ADAPTIVE_SMOKE = [
    "campaign", "weighted", "--strategy", "adaptive", "--ci-width", "0.4",
    "--axis", "u_total=0.8,2.4", "--axis", "n=6",
    "--axis", "period_hyperperiod=720.0", "--axis", "rep=0,1,2",
    "--axis", "rate=0.02", "--workers", "1", "--seed", "3", "--no-progress",
]


def _sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestAdaptiveCampaign:
    def test_grid_strategy_bytes_match_pre_refactor_goldens(self, tmp_path):
        weighted = tmp_path / "weighted.json"
        assert main(WEIGHTED_GOLDEN + ["--state", str(weighted)]) == 0
        assert _sha256(weighted) == WEIGHTED_GOLDEN_SHA
        faultspace = tmp_path / "faultspace.json"
        assert main(FAULTSPACE_GOLDEN + ["--state", str(faultspace)]) == 0
        assert _sha256(faultspace) == FAULTSPACE_GOLDEN_SHA

    def test_sharded_grid_bytes_match_pre_refactor_goldens(self, tmp_path):
        for index, golden in enumerate(WEIGHTED_GOLDEN_SHARD_SHAS):
            state = tmp_path / f"shard{index}.json"
            assert main(
                WEIGHTED_GOLDEN
                + ["--shard", f"{index}/2", "--state", str(state)]
            ) == 0
            assert _sha256(state) == golden

    def test_adaptive_smoke_deterministic_and_reports_rounds(
        self, tmp_path, capsys
    ):
        states = [tmp_path / "a.json", tmp_path / "b.json"]
        for state in states:
            assert main(ADAPTIVE_SMOKE + ["--state", str(state)]) == 0
        err = capsys.readouterr().err
        assert "adaptive:" in err and "round(s)" in err
        assert states[0].read_bytes() == states[1].read_bytes()
        snap = json.loads(states[0].read_text())
        assert snap["source"]["strategy"] == "adaptive"
        assert snap["source"]["complete"] is True
        # Resuming the finished snapshot is a no-op that rewrites nothing.
        before = states[0].read_bytes()
        assert main(ADAPTIVE_SMOKE + ["--state", str(states[0])]) == 0
        assert "adaptive: 0 round(s)" in capsys.readouterr().err
        assert states[0].read_bytes() == before

    def test_ci_width_requires_adaptive_strategy(self):
        with pytest.raises(SystemExit, match="--ci-width"):
            main(["campaign", "weighted", "--ci-width", "0.1", "--no-progress"])

    def test_max_points_requires_adaptive_strategy(self):
        with pytest.raises(SystemExit, match="--max-points"):
            main(
                ["campaign", "weighted", "--max-points", "10", "--no-progress"]
            )

    def test_adaptive_requires_supported_preset(self):
        with pytest.raises(SystemExit, match="adaptive"):
            main(
                ["campaign", "sched", "--strategy", "adaptive", "--no-progress"]
            )

    def test_adaptive_shard_needs_snapshot_destination(self):
        with pytest.raises(SystemExit, match="--state or --cache-dir"):
            main(
                ["campaign", "weighted", "--strategy", "adaptive",
                 "--shard", "0/2", "--no-progress"]
            )


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="nope.json: No such file"):
            main(["analyze", str(tmp_path / "nope.json")])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestPresetRegistryWiring:
    """Satellite: the CLI is a thin consumer of the preset registry — the
    on_error policy and every refusal text have one source of truth, so
    the drift the old parallel name-tuples allowed is now impossible."""

    def test_on_error_policy_wired_from_registry(self, monkeypatch):
        from repro.runner.presets import get_preset, preset_names

        class _Stop(Exception):
            pass

        captured = {}

        def fake_stream(runnable, aggregator, **kwargs):
            captured.update(kwargs)
            raise _Stop

        monkeypatch.setattr("repro.runner.stream_campaign", fake_stream)
        for name in preset_names():
            captured.clear()
            with pytest.raises(_Stop):
                main(["campaign", name, "--workers", "1", "--no-progress"])
            assert captured["on_error"] == get_preset(name).on_error, name

    def test_refusal_texts_come_from_registry(self):
        from repro.runner.presets import (
            adaptive_message,
            axis_override_message,
            scenario_message,
        )

        with pytest.raises(SystemExit) as exc:
            main(["campaign", "table2", "--axis", "u_total=1.0",
                  "--no-progress"])
        assert str(exc.value) == axis_override_message()
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "weighted", "--scenario", "bursty",
                  "--no-progress"])
        assert str(exc.value) == scenario_message()
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "sched", "--strategy", "adaptive",
                  "--no-progress"])
        assert str(exc.value) == f"campaign: {adaptive_message()}"


class TestCampaignMergeByteIdentity:
    """Satellite: `repro merge --preset` renders through the same query
    layer as `repro campaign`, so one snapshot yields one report."""

    def test_weighted_report_identical_campaign_vs_merge(
        self, tmp_path, capsys
    ):
        state = tmp_path / "state.json"
        assert main(
            ["campaign", "weighted", *WEIGHTED_TINY, "--workers", "1",
             "--seed", "3", "--no-progress", "--state", str(state)]
        ) == 0
        campaign_report = capsys.readouterr().out
        assert main(["merge", str(state), "--preset", "weighted",
                     "--out", str(tmp_path / "merged.json")]) == 0
        merge_report = capsys.readouterr().out
        assert merge_report == campaign_report
        assert "weighted schedulability" in merge_report
        assert "weighted acceptance curves" in merge_report  # the ASCII plot

    def test_merge_refuses_foreign_preset_via_query_layer(
        self, tmp_path, capsys
    ):
        state = tmp_path / "state.json"
        assert main(
            ["campaign", "weighted", *WEIGHTED_TINY, "--workers", "1",
             "--no-progress", "--state", str(state)]
        ) == 0
        capsys.readouterr()
        out_file = tmp_path / "merged.json"
        assert main(["merge", str(state), "--preset", "faultspace",
                     "--out", str(out_file)]) == 1
        out = capsys.readouterr().out
        assert (
            "merge failed: snapshots were not built by the 'faultspace' "
            "preset's aggregate (config digest mismatch)"
        ) in out
        # a refused merge must not leave a merged snapshot behind
        assert not out_file.exists()


class TestTelemetryAndProfile:
    """--telemetry traces + run manifests, and the profile command."""

    AXES = ["--axis", "u_total=0.5,1.0", "--axis", "n=4", "--axis", "rep=0,1"]

    def _run(self, tmp_path, name, *extra):
        out = tmp_path / f"{name}.json"
        rc = main([
            "campaign", "sched", *self.AXES, "--workers", "1",
            "--no-progress", "--out", str(out), *extra,
        ])
        assert rc == 0
        return out

    def test_telemetry_writes_trace_and_manifest(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        self._run(tmp_path, "traced", "--telemetry", str(tel))
        err = capsys.readouterr().err
        trace = tel / "trace.ndjson"
        manifest_path = tel / "run-manifest.json"
        assert trace.exists() and manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == 2
        assert manifest["config"]["preset"] == "sched"
        # every count is the stats line's; the ratios are computed from it
        stats = manifest["stats"]
        fast, fallback = stats["kernel_fast"], stats["kernel_fallback"]
        assert stats["folded"] == stats["computed"] == 4
        assert (
            f"4 points (4 unique): 4 computed, 0 cached in {stats['elapsed']:.2f}s"
            f" with 1 worker(s) x batch {stats['batch_size']}; aggregate: "
            f"4 folded, 0 resumed; kernels: 100.0% fast ({fast}/{fast})"
        ) in err
        assert fallback == 0 < fast
        assert manifest["cache"] == {"hit_ratio": 0.0}
        assert manifest["kernels"] == {"fast_share": 1.0}
        assert "counters" not in manifest and "gauges" not in manifest
        assert "campaign" in manifest["phases"]
        assert len(manifest["aggregate_digest"]) == 64

    def test_output_byte_identical_with_telemetry_on_and_off(
        self, tmp_path, capsys
    ):
        plain = self._run(tmp_path, "plain")
        traced = self._run(
            tmp_path, "traced", "--telemetry", str(tmp_path / "tel")
        )
        capsys.readouterr()
        assert plain.read_bytes() == traced.read_bytes()

    def test_profile_renders_phase_breakdown(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        self._run(tmp_path, "traced", "--telemetry", str(tel))
        capsys.readouterr()
        assert main(["profile", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "root span: campaign" in out
        assert "coverage:" in out
        assert "execute" in out
        assert "manifest:" in out  # the sibling run-manifest one-liner

    def test_profile_min_coverage_gate(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        self._run(tmp_path, "traced", "--telemetry", str(tel))
        capsys.readouterr()
        assert main(["profile", str(tel), "--min-coverage", "0.95"]) == 0
        # an impossible bar fails with a diagnostic on stderr
        assert main(["profile", str(tel), "--min-coverage", "1.01"]) == 1
        assert "coverage" in capsys.readouterr().err

    def test_profile_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "absent")]) == 1
        assert "profile failed" in capsys.readouterr().err
