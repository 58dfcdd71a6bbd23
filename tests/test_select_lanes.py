"""``select`` in forked lanes: the same bytes as one process, failures that
surface, and no process left behind.

An in-process ``select`` takes the one-lane path (conftest's ``one_lane``).
Each test here runs ``select`` in a subprocess whose BLAS is pinned to one
thread (``run_pinned``), so that it forks one lane per usable CPU.
"""

import json
import os

import pytest
from conftest import forked_lanes, run_pinned

from roarsel.cli import main

pytestmark = forked_lanes

PLANT = {"n": 240, "t": 4, "b": 3, "signal_bands": [0, 2],
         "signal_steps": [0, 1, 2, 3], "noise": 0.3}
FIVE_FAMILIES = [
    {"architecture": "mlp", "width": 8},
    {"architecture": "rnn", "hidden_size": 4},
    {"architecture": "lstm", "hidden_size": 4},
    {"architecture": "gru", "hidden_size": 4},
    {"architecture": "tempcnn", "channels": 4, "kernel_size": 3, "dense_size": 8},
]
SHORT_TEMPCNN = {"architecture": "tempcnn", "channels": 4, "kernel_size": 9,
                 "dense_size": 8}  # kernel 9 > T = 4: the candidate fails

# Runs `select` with `train` wrapped to append the pid of every process that
# trains to argv[2], then exits with select's code once no child is left.
# This process's first job waits until a forked lane has recorded one.
RECORDING_SELECT = """
import os, sys
from pathlib import Path
from conftest import await_a_lane
from roarsel import training
from roarsel.cli import main

parent, train, pids = os.getpid(), training.train, Path(sys.argv[2])

def recording_train(*args, **kwargs):
    with open(pids, "a") as f:
        f.write(f"{os.getpid()}\\n")
    if os.getpid() == parent:
        await_a_lane(lambda: len(set(pids.read_text().split())) >= 2)
    return train(*args, **kwargs)

training.train = recording_train
code = main(["select", "--config", sys.argv[1], "--out", sys.argv[3]])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child process outlived select")
"""


def _config(tmp_path, grid):
    cfg = {"seed": 7, "out_dir": str(tmp_path / "out"),
           "dataset": {"path": str(tmp_path / "data"), "plant": PLANT},
           "train": {"max_epochs": 3, "patience": 1, "batch_size": 32,
                     "learning_rate": 0.003},
           "grid": grid}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("grid", [FIVE_FAMILIES,
                                  [FIVE_FAMILIES[0], SHORT_TEMPCNN, FIVE_FAMILIES[1]]],
                         ids=["five-families", "failing-tempcnn"])
def test_forked_select_writes_the_one_lane_bytes(tmp_path, grid):
    path = _config(tmp_path, grid)
    assert main(["select", "--config", path, "--out", str(tmp_path / "one")]) == 0
    pids = tmp_path / "pids"
    done = run_pinned("-c", RECORDING_SELECT, path, str(pids), str(tmp_path / "forked"))
    assert done.returncode == 0, done.stderr
    for name in ("selection.json", "selection.csv"):
        assert (tmp_path / "forked" / name).read_bytes() == \
               (tmp_path / "one" / name).read_bytes(), name
    assert len(set(pids.read_text().split())) >= 2  # the lanes really forked
    if SHORT_TEMPCNN in grid:
        rows = (tmp_path / "forked" / "selection.csv").read_text().splitlines()
        assert [r for r in rows if r.startswith("tempcnn,")][0].count("failed: ") == 1


def test_forked_select_with_every_candidate_failing_exits_3(tmp_path, capsys):
    path = _config(tmp_path, [SHORT_TEMPCNN, dict(SHORT_TEMPCNN, kernel_size=7)])
    capsys.readouterr()
    assert main(["select", "--config", path, "--out", str(tmp_path / "one")]) == 3
    one_lane = capsys.readouterr().err
    assert "every candidate failed" in one_lane
    done = run_pinned("-m", "roarsel", "select", "--config", path,
                      "--out", str(tmp_path / "forked"))
    assert done.returncode == 3
    assert done.stderr == one_lane


# Runs `select` with `train` replaced by argv[2]'s behaviour in the parent and
# argv[3]'s in every forked lane.
SPLIT_TRAIN = """
import os, sys, time
from roarsel import training
from roarsel.cli import main

parent, train = os.getpid(), training.train

def lane_exit():
    os._exit(1)

def failing_train():
    raise ValueError("a lane failed")

def interrupt():
    raise KeyboardInterrupt

def slow():
    time.sleep(0.2)

def hang():
    time.sleep(90)

def split_train(*args, **kwargs):
    globals()[sys.argv[2] if os.getpid() == parent else sys.argv[3]]()
    return train(*args, **kwargs)

training.train = split_train
try:
    code = main(["select", "--config", sys.argv[1]])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        print("a child process outlived select", file=sys.stderr)
sys.exit(code)
"""


def _split_select(tmp_path, parent: str, lane: str):
    path = _config(tmp_path, FIVE_FAMILIES)
    return run_pinned("-c", SPLIT_TRAIN, path, parent, lane, timeout=60)


def test_a_lane_that_dies_names_its_lost_candidates(tmp_path):
    done = _split_select(tmp_path, "slow", "lane_exit")
    assert done.returncode == 3, done.stderr
    assert "without the outcome of candidates [" in done.stderr
    assert "outlived" not in done.stderr


def test_a_lanes_exception_is_raised_with_its_traceback(tmp_path):
    done = _split_select(tmp_path, "slow", "failing_train")
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith("ValueError: a lane failed")
    lane_text = done.stderr.split("The above exception")[0]
    assert "_LaneTraceback" in lane_text and "in failing_train" in lane_text
    assert "outlived" not in done.stderr


def test_an_interrupt_terminates_and_joins_every_lane(tmp_path):
    # a lane that sleeps for longer than the timeout must not delay the interrupt
    done = _split_select(tmp_path, "interrupt", "hang")
    assert done.returncode != 0
    assert "KeyboardInterrupt" in done.stderr
    assert "outlived" not in done.stderr


# The pinned counterpart of test_training's test_ranking_never_reads_test_split:
# the guard opens once every process together has trained every candidate.
# This process's first job waits until a forked lane has trained one.
GUARDED_SELECT = """
import multiprocessing, os
from conftest import await_a_lane
from roarsel import training
from roarsel.data import SplitTriple
from roarsel.models import Architecture, ModelSpec
from test_training import SMALL, _GuardedSplit, quick_cfg, three_way_splits

ctx = multiprocessing.get_context("fork")
calls, forked_calls = ctx.Value("i", 0), ctx.Value("i", 0)
parent, train = os.getpid(), training.train

def counting_train(*args, **kwargs):
    if os.getpid() == parent:
        await_a_lane(lambda: forked_calls.value >= 1)
    result = train(*args, **kwargs)
    with calls.get_lock():
        calls.value += 1
    if os.getpid() != parent:
        with forked_calls.get_lock():
            forked_calls.value += 1
    return result

training.train = counting_train
base = three_way_splits()
spec = ModelSpec(Architecture.MLP, **SMALL)
grid = [(spec, quick_cfg()), (spec, quick_cfg()), (spec, quick_cfg(lr=1e-3))]
test = _GuardedSplit(base.test, lambda: calls.value == len(grid))
splits = SplitTriple(train=base.train, validation=base.validation, test=test)
model, report = training.select_model(grid, splits, seed=1)
assert calls.value == len(grid)
assert forked_calls.value >= 1
assert report.best_index == 0
assert report.test_metric == training.evaluate(model, base.test).value
assert training.evaluate(model, base.validation).value == report.ranking[0].val_metric
"""


def test_forked_ranking_never_reads_test_split():
    done = run_pinned("-c", GUARDED_SELECT)
    assert done.returncode == 0, done.stderr


LANES = """
import threading
from roarsel.lanes import lane_count

before = lane_count(5)
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
during = lane_count(5)
stop.set()
thread.join()
print(before, during, lane_count(1))
"""


def test_a_process_with_a_second_thread_trains_in_one_lane():
    done = run_pinned("-c", LANES)
    assert done.returncode == 0, done.stderr
    cpus = len(os.sched_getaffinity(0))
    assert done.stdout.split() == [str(min(cpus, 5)), "1", "1"]
