"""Focused tests for hardware cost-model internals and the Schedule object."""

import pytest

from repro.core import MapScheduler, SchedulerConfig
from repro.errors import SchedulingError
from repro.hw import evaluate
from repro.hw.cost import _consumption_cycles, _critical_path, _liveness_ffs
from repro.scheduling.schedule import Schedule
from repro.tech.area import AreaModel
from repro.tech.delay import DelayModel
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent


@pytest.fixture
def mapped():
    return MapScheduler(build_recurrent(), XC7,
                        SchedulerConfig(ii=1, tcp=10.0)).schedule()


class TestScheduleObject:
    def test_latency_and_stages(self, mapped):
        assert mapped.latency >= 1
        assert mapped.num_stages == mapped.latency - 1

    def test_cycle_of_unknown_raises(self, mapped):
        with pytest.raises(SchedulingError, match="not scheduled"):
            mapped.cycle_of(9999)

    def test_nodes_in_cycle_sorted_by_start(self, mapped):
        members = mapped.nodes_in_cycle(0)
        starts = [mapped.start.get(n, 0.0) for n in members]
        assert starts == sorted(starts)

    def test_finish_time(self, mapped):
        nid = next(iter(mapped.cover))
        assert mapped.finish_time(nid, 2.0) == pytest.approx(
            mapped.cycle[nid] * mapped.tcp + mapped.start.get(nid, 0.0) + 2.0
        )

    def test_describe_lists_roots(self, mapped):
        text = mapped.describe()
        assert "*" in text and "II=1" in text


class TestLiveness:
    def test_consumption_includes_loop_carried_shift(self, mapped):
        reads = _consumption_cycles(mapped)
        graph = mapped.graph
        rec = next(n for n in graph if n.attrs.get("recurrence"))
        producer = rec.operands[1].source
        # the producer's value is read one II later by the recurrence
        assert any(c >= mapped.cycle[producer] + 1
                   for c in reads.get(producer, []))

    def test_ffs_sum_matches_by_cycle(self, mapped):
        area = AreaModel(XC7, mapped.graph)
        total, by_cycle = _liveness_ffs(mapped, area)
        assert total == sum(by_cycle.values())

    def test_single_cycle_value_is_free(self):
        sched = MapScheduler(build_fig1(), TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=5.0)).schedule()
        area = AreaModel(TUTORIAL4, sched.graph)
        total, _ = _liveness_ffs(sched, area)
        assert total == 0  # 1-stage pipeline, no loop-carried values


class TestCriticalPath:
    def test_chain_bounded_by_budget(self, mapped):
        delay = DelayModel(XC7, mapped.graph)
        chain = _critical_path(mapped, delay)
        assert 0.0 < chain <= mapped.tcp + 1e-9

    def test_cp_monotone_in_congestion(self, mapped):
        r = evaluate(mapped, XC7)
        chain = _critical_path(mapped, DelayModel(XC7, mapped.graph))
        assert r.cp >= chain  # congestion + setup only add

    def test_live_bits_by_cycle_reported(self, mapped):
        r = evaluate(mapped, XC7)
        assert sum(r.live_bits_by_cycle.values()) == r.ffs


class TestCLI:
    def test_list_command(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CLZ" in out and "GSM" in out

    def test_figure2_command(self, capsys):
        from repro.__main__ import main

        assert main(["figure2"]) == 0
        assert "sign-test refinement" in capsys.readouterr().out

    def test_table2_subset(self, capsys):
        from repro.__main__ import main

        assert main(["table2", "GSM", "--time-limit", "20"]) == 0
        assert "GSM" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["trace", "GSM", "--jobs", "2"],
        ["equiv", "GSM", "--jobs", "2"],
        ["fuzz", "--cache-dir", "unused"],
        ["bench"],
    ], ids=["trace-jobs", "equiv-jobs", "fuzz-cache-dir", "bench"])
    def test_rejects_unread_options_and_retired_commands(self, argv):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
