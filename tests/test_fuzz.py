"""Tests for the differential fuzzing harness (`repro.fuzz`)."""

import dataclasses
import json
import random

import pytest

from repro.core import MapScheduler, SchedulerConfig
from repro.core.verify import verify_schedule
from repro.errors import ReproError, ScheduleVerificationError
from repro.fuzz import (
    MUTATORS,
    PROFILES,
    Divergence,
    FuzzCase,
    FuzzCaseData,
    generate_case,
    generate_graph,
    load_corpus,
    make_entry,
    mutate,
    replay_entry,
    run_campaign,
    run_oracle,
    save_entry,
    shrink,
)
from repro.fuzz.runner import FuzzTask, _case_for_task
from repro.fuzz.shrink import drop_node
from repro.ir.types import OpKind
from repro.ir.validate import validate
from repro.milp import bnb
from repro.tech.device import XC7

FAST = SchedulerConfig(ii=1, tcp=10.0, time_limit=20.0, max_cuts=8)


class TestGenerator:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_profiles_generate_valid_graphs(self, profile):
        for seed in range(8):
            g = generate_graph(seed, PROFILES[profile])
            validate(g)

    def test_deterministic(self):
        from repro.ir.serialize import dumps

        a, b = generate_case(11), generate_case(11)
        assert dumps(a.graph) == dumps(b.graph)
        assert a.stimulus == b.stimulus

    def test_mux_selects_are_one_bit(self):
        for seed in range(12):
            g = generate_case(seed).graph
            for node in g.nodes_of_kind(OpKind.MUX):
                assert g.node(node.operands[0].source).width == 1

    def test_stimulus_covers_all_inputs(self):
        case = generate_case(4)
        names = {n.name for n in case.graph.inputs}
        for row in case.stimulus:
            assert names <= set(row)

    def test_memory_profile_emits_loads(self):
        found = False
        for seed in range(5, 60, 6):  # seeds routed to the memory profile
            g = generate_case(seed, "memory").graph
            if g.nodes_of_kind(OpKind.LOAD):
                found = True
                break
        assert found


class TestMutators:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_mutants_stay_valid(self, name):
        rng = random.Random(99)
        produced = 0
        for seed in range(12):
            g = generate_case(seed).graph
            mutant = MUTATORS[name](g, rng)
            if mutant is not None:
                produced += 1
                validate(mutant)
        assert produced > 0, f"{name} never produced a mutant"

    def test_mutate_composite_always_valid(self):
        for seed in range(10):
            g = generate_case(seed).graph
            mutant = mutate(g, seed, rounds=3)
            validate(mutant)

    def test_mutators_do_not_touch_input(self):
        from repro.ir.serialize import dumps

        g = generate_case(2).graph
        before = dumps(g)
        mutate(g, 7, rounds=3)
        assert dumps(g) == before


class TestOracles:
    def test_cheap_oracles_pass_on_clean_seeds(self):
        for seed in (0, 3):
            case = FuzzCase(generate_case(seed), config=FAST)
            for name in ("narrow", "bitblast", "cache"):
                result = run_oracle(name, case)
                assert result.status == "pass", (seed, name, result.message)

    def test_full_oracle_set_on_one_seed(self):
        case = FuzzCase(generate_case(3), config=FAST)  # bit-edge: small
        for name in ("sim-replay", "schedule", "rtl", "backend"):
            result = run_oracle(name, case)
            assert result.status in ("pass", "skip"), (name, result.message)

    @pytest.mark.parametrize("seed", [135, 207])
    def test_backend_oracle_compares_on_small_seeds(self, seed):
        # Most campaign seeds are too large for bnb and skip; these two
        # reach the HiGHS-vs-bnb comparison.
        case = FuzzCase(_case_for_task(FuzzTask(seed=seed)), config=FAST)
        result = run_oracle("backend", case)
        assert result.status == "pass", result.message

    def test_backend_oracle_flags_a_worse_bnb_point(self, monkeypatch):
        real = bnb.solve_branch_and_bound

        def one_worse(model, **kwargs):
            # Cut the true optimum off so bnb returns a point a full unit
            # worse, still labelled optimal.
            best = real(model, **kwargs)
            model.add(model.objective >= best.objective + 1.0)
            return real(model, **kwargs)

        monkeypatch.setattr(bnb, "solve_branch_and_bound", one_worse)
        case = FuzzCase(_case_for_task(FuzzTask(seed=135)), config=FAST)
        result = run_oracle("backend", case)
        assert result.status == "diverge", result.message
        assert result.divergence.kind == "cost"
        details = result.divergence.details
        assert details["bnb"] >= details["scipy"] + 1.0 - 1e-6

    def test_sim_replay_catches_broken_semantics(self):
        # A graph whose schedule is fine but whose replay we sabotage via
        # a corrupted stimulus comparison is hard to fake; instead check
        # the Divergence plumbing round-trips.
        d = Divergence(oracle="sim-replay", kind="mismatch", message="m",
                       details={"iteration": 0})
        assert Divergence.from_dict(d.to_dict()) == d

    def test_unknown_oracle_raises(self):
        case = FuzzCase(generate_case(0), config=FAST)
        with pytest.raises(KeyError):
            run_oracle("nope", case)


def _corrupt_cut_failing(graph, stim):
    """Oracle for the injected fault: schedule, corrupt one cut's support
    sizes, and expect the independent verifier to flag it (SCH003)."""
    try:
        sched = MapScheduler(graph, XC7, FAST).schedule()
    except ReproError:
        return False
    roots = [r for r in sorted(sched.cover)
             if sched.graph.node(r).is_mappable]
    if not roots:
        return False
    bad = dataclasses.replace(
        sched.cover[roots[0]], kind="merged",
        support=(40,) * len(sched.cover[roots[0]].support))
    sched.cover[roots[0]] = bad
    try:
        verify_schedule(sched, XC7)
    except ScheduleVerificationError:
        return True
    return False


class TestShrinker:
    def test_injected_cut_fault_shrinks_to_eight_nodes(self):
        case = generate_case(3)  # bit-edge: small widths, fast solves
        assert _corrupt_cut_failing(case.graph, case.stimulus)
        result = shrink(case.graph, case.stimulus, _corrupt_cut_failing,
                        max_checks=120)
        assert len(result.graph) <= 8, (
            f"shrunk to {len(result.graph)} nodes")
        assert _corrupt_cut_failing(result.graph, result.stimulus)
        validate(result.graph)

    def test_drop_node_preserves_validity(self):
        g = generate_case(1).graph
        dropped = 0
        for node in list(g):
            candidate = drop_node(g, node.nid)
            if candidate is not None:
                dropped += 1
                validate(candidate)
                # replacing a node with a fresh constant keeps the size
                # even; it must never grow
                assert len(candidate) <= len(g)
        assert dropped > 0

    def test_drop_node_refuses_interface_nodes(self):
        g = generate_case(1).graph
        assert drop_node(g, g.inputs[0].nid) is None
        assert drop_node(g, g.outputs[0].nid) is None

    def test_stimulus_shrinks(self):
        case = generate_case(0)
        result = shrink(case.graph, case.stimulus,
                        lambda g, s: len(s) >= 1, max_checks=40)
        assert len(result.stimulus) == 1


class TestRunner:
    def test_summary_deterministic_across_jobs(self):
        # Satellite: --jobs 1 and --jobs 2 must be byte-identical.
        kwargs = dict(seeds=6, oracles=("narrow", "bitblast"),
                      config=FAST)
        s1 = run_campaign(jobs=1, **kwargs)
        s2 = run_campaign(jobs=2, **kwargs)
        assert s1.canonical_json() == s2.canonical_json()
        assert s1.counts()["diverge"] == 0

    def test_summary_schema_and_counts(self):
        summary = run_campaign(seeds=3, oracles=("narrow",), config=FAST)
        data = summary.to_dict()
        assert data["schema"] == "repro-fuzz/v1"
        assert data["seeds_run"] == 3
        assert data["counts"]["pass"] == 3
        # canonical form strips wall-clock fields
        canonical = json.loads(summary.canonical_json())
        assert "elapsed" not in canonical
        for r in canonical["results"]:
            for record in r["oracles"].values():
                assert "seconds" not in record

    def test_time_budget_stops_early(self):
        summary = run_campaign(seeds=40, oracles=("narrow",),
                               config=FAST, time_budget=0.0)
        assert summary.stopped_early
        assert len(summary.results) < 40

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz profile"):
            run_campaign(seeds=1, profiles=("nope",))

    def test_mutated_seeds_marked(self):
        summary = run_campaign(seeds=4, oracles=("narrow",), config=FAST,
                               mutate_rounds=2)
        profiles = [r["profile"] for r in summary.results]
        assert any(p.endswith("+mut") for p in profiles)


class TestCorpus:
    def test_entry_roundtrip_and_replay(self, tmp_path):
        case = generate_case(0)
        entry = make_entry(oracle="narrow", seed=case.seed,
                           profile=case.profile, graph=case.graph,
                           stimulus=case.stimulus,
                           description="clean seed pinned for the test")
        path = save_entry(str(tmp_path), entry)
        entries = load_corpus(str(tmp_path))
        assert [e["_file"] for e in entries] == [path.rsplit("/", 1)[-1]]
        result = replay_entry(entries[0], config=FAST)
        assert result.status == "pass"

    def test_bad_schema_rejected(self, tmp_path):
        (tmp_path / "x.json").write_text('{"schema": "nope/v9"}')
        with pytest.raises(ValueError, match="unsupported corpus schema"):
            load_corpus(str(tmp_path))

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "absent")) == []


class TestCLI:
    def test_fuzz_cli_smoke(self, capsys):
        from repro.__main__ import main

        code = main(["fuzz", "--seeds", "2", "--oracles", "narrow,bitblast",
                     "--time-limit", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 seeds" in out

    def test_fuzz_cli_json_output(self, capsys, tmp_path):
        from repro.__main__ import main

        out_file = tmp_path / "summary.json"
        code = main(["fuzz", "--seeds", "1", "--oracles", "narrow",
                     "--format", "json", "--output", str(out_file),
                     "--time-limit", "20"])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["schema"] == "repro-fuzz/v1"
        assert json.loads(capsys.readouterr().out)["schema"] == "repro-fuzz/v1"

    def test_fuzz_cli_rejects_unknown_oracle(self, capsys):
        from repro.__main__ import main

        assert main(["fuzz", "--oracles", "bogus"]) == 2
        assert "unknown oracle" in capsys.readouterr().err


class TestCaseEnvironment:
    def test_env_factory_is_deterministic(self):
        data = generate_case(5, "memory")
        e1, e2 = data.env_factory(), data.env_factory()
        assert e1.memories == e2.memories
        assert e1.memories  # memory profile binds at least one array

    def test_fuzz_case_reuses_flows(self):
        case = FuzzCase(generate_case(3), config=FAST)
        a = case.flow("milp-map")
        b = case.flow("milp-map")
        assert a is b
