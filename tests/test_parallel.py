"""``parallel.in_halves``, and the score path that runs through it.

Each test that forks reports two usable CPUs through a patched probe, so it
forks on any machine; the "probed" cases use the real probe, which sees one
CPU under ``taskset -c 0`` and keeps both halves in this process."""

import mmap
import os
import signal
import time

import pytest

from recipegen import dvceval, oracle, parallel
from recipegen.dvceval import evaluate_corpus
from recipegen.oracle import oracle_prediction, oracle_report, oracle_sweep
from recipegen.synth import WorldConfig, generate_world

WORLD = generate_world(WorldConfig(num_videos=12, seed=7))


def usable_cpus(monkeypatch, cpus: int | None) -> list:
    """Report ``cpus`` usable CPUs (the real probe when None) and return the
    list of child pids that ``os.fork`` makes."""
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    children = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unpicklable(ValueError):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class NeedsTwoArguments(KeyError):
    """Pickles, but cannot be rebuilt from its ``args``."""

    def __init__(self, video, field):
        super().__init__(f"{video}: {field}")


def second_half_raises(error):
    """Work on ``[1, 2]`` that raises ``error`` for the second half, ``[2]``."""

    def work(half):
        if half == [2]:
            raise error
        return half

    return work


class TestInHalves:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_results_come_back_in_order(self, monkeypatch, cpus):
        children = usable_cpus(monkeypatch, cpus)
        mine, theirs = parallel.in_halves(lambda half: [(x, os.getpid()) for x in half], list(range(7)))
        assert [x for x, _ in mine + theirs] == list(range(7))
        assert [x for x, _ in mine] == [0, 1, 2, 3]
        assert {pid for _, pid in mine} == {os.getpid()}
        assert ({pid for _, pid in theirs} == {os.getpid()}) == (cpus == 1)
        assert len(children) == (cpus == 2)
        assert_no_child_left()

    @pytest.mark.parametrize("items", [[], ["only"]])
    def test_zero_or_one_item_runs_here(self, monkeypatch, items):
        children = usable_cpus(monkeypatch, 2)
        halves = parallel.in_halves(lambda half: (list(half), os.getpid()), items)
        assert halves == ((items, os.getpid()), ([], os.getpid()))
        assert children == []

    def test_child_exception_keeps_type_and_message(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        with pytest.raises(LookupError, match="^'video_0003: no such step'$") as raised:
            parallel.in_halves(second_half_raises(KeyError("video_0003: no such step")), [1, 2])
        assert type(raised.value) is KeyError
        assert_no_child_left()

    @pytest.mark.parametrize(
        "error", [Unpicklable("video_0001: bad"), NeedsTwoArguments("video_0001", "bad")],
        ids=["unpicklable", "not-rebuildable"],
    )
    def test_child_exception_that_cannot_travel_names_its_type(self, monkeypatch, error):
        """The same built-in class as with one CPU, naming the original type and message."""
        usable_cpus(monkeypatch, 1)
        with pytest.raises(type(error)):
            parallel.in_halves(second_half_raises(error), [1, 2])
        usable_cpus(monkeypatch, 2)
        with pytest.raises(type(error).__mro__[1]) as raised:
            parallel.in_halves(second_half_raises(error), [1, 2])
        assert type(raised.value).__module__ == "builtins"
        assert f"{type(error).__qualname__}: {error}" in str(raised.value)
        assert_no_child_left()

    def test_unpicklable_result_raises_a_readable_error(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        with pytest.raises(Exception, match="pickle") as raised:
            parallel.in_halves(lambda half: [lambda: x for x in half], [1, 2])
        assert "wait status" not in str(raised.value)
        assert_no_child_left()

    def test_killed_child_raises_runtime_error(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        parent = os.getpid()

        def work(half):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return half

        with pytest.raises(RuntimeError, match="wait status"):
            parallel.in_halves(work, [1, 2])
        assert_no_child_left()

    def test_parent_failure_kills_and_reaps_the_child(self, monkeypatch):
        children = usable_cpus(monkeypatch, 2)
        parent = os.getpid()

        def work(half):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("first half failed")

        start = time.monotonic()
        with pytest.raises(ValueError, match="first half failed"):
            parallel.in_halves(work, [1, 2])
        assert time.monotonic() - start < 30
        assert len(children) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(children[0], 0)
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors from /proc")
    def test_failed_fork_closes_the_pipe(self, monkeypatch):
        usable_cpus(monkeypatch, 2)

        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            parallel.in_halves(len, [1, 2])
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_channel_runs_only_when_forking(self, monkeypatch):
        usable_cpus(monkeypatch, 1)
        opened = []

        def channel():
            opened.append(1)
            return (lambda result: ("packed", result, os.getpid()),
                    lambda sent: ("unpacked",) + sent)

        assert parallel.in_halves(len, [1, 2, 3], channel) == (2, 1)
        assert opened == []
        usable_cpus(monkeypatch, 2)
        mine, theirs = parallel.in_halves(len, [1, 2, 3], channel)
        assert (mine, theirs[:3]) == (2, ("unpacked", "packed", 1))
        assert theirs[3] != os.getpid()
        assert opened == [1]


def score_path(records):
    preds = [oracle_prediction(r)[0] for r in records]
    return (
        oracle_report(records),
        oracle_report(records, mode="attached"),
        oracle_sweep(records, [3, 8, 5]),
        evaluate_corpus(preds, [r.ground_truth for r in records]),
    )


class TestScoreHalves:
    def test_forked_in_process_and_probed_reports_are_equal(self, monkeypatch):
        outputs = {}
        probe_forks = len(os.sched_getaffinity(0)) > 1  # False under `taskset -c 0`
        for path, cpus, forks in (("here", 1, 0), ("forked", 2, 4), ("probed", None, 4 * probe_forks)):
            with monkeypatch.context() as patch:
                children = usable_cpus(patch, cpus)
                outputs[path] = score_path(WORLD)
            assert len(children) == forks  # one per report, one for all budgets of the sweep
        assert outputs["forked"] == outputs["here"]
        assert outputs["probed"] == outputs["here"]
        report, _, sweep, evaluated = outputs["here"]
        assert [row["video_id"] for row in report["per_video"]] == [r.video_id for r in WORLD]
        assert [row["video_id"] for row in evaluated["per_video"]] == [r.video_id for r in WORLD]
        assert [row["n_candidates"] for row in sweep["rows"]] == [3, 5, 8]
        assert_no_child_left()

    def test_scoring_maps_no_shared_memory(self, monkeypatch):
        children = usable_cpus(monkeypatch, 2)
        mapped = []
        real = mmap.mmap

        def counted(*args, **kwargs):
            mapped.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", counted)
        score_path(WORLD[:4])
        parallel.in_halves(len, [1, 2])
        assert len(children) == 5
        assert mapped == []

    def test_sweep_scores_each_half_once_for_all_budgets(self, monkeypatch):
        """Each process builds the tIoU table of each video of its own half
        only, once for all budgets."""
        children = usable_cpus(monkeypatch, 2)
        tables = []
        build = oracle.tiou_matrix

        def counted(pred, gt):
            tables.append(gt)
            return build(pred, gt)

        monkeypatch.setattr(oracle, "tiou_matrix", counted)
        monkeypatch.setattr(dvceval, "tiou_matrix", counted)
        oracle_sweep(WORLD, [6, 4])
        assert len(children) == 1
        assert tables == [[s.interval for s in r.steps] for r in WORLD[:6]]
