"""The estimators' sample blocks in forked lanes: the same bytes as one
process, failures that surface, and no process left behind.

An in-process estimator call takes the one-lane path (conftest's
``one_lane``). Each test here runs its estimator calls or its ``roar`` in a
subprocess whose BLAS is pinned to one thread (``run_pinned``), so that the
sample blocks fork one lane per usable CPU.
"""

import json

import numpy as np
from conftest import forked_lanes, grid_schema, run_pinned

from roarsel import attribution
from roarsel.attribution import ExplainBudget, GroupingAxis, feature_groups, run_estimator
from roarsel.cli import main
from roarsel.engine import DTYPE
from roarsel.errors import EstimatorError
from roarsel.models import Architecture, ModelSpec, build

pytestmark = forked_lanes

TAGS = attribution.ESTIMATOR_TAGS
HEADS = {"regression": None, "classification": 3}
FORKED_BLOCK_ROWS = 10  # 30 samples: 3 gb blocks, 30 Shapley blocks


def estimate(tag: str, n_classes):
    """``tag`` on 30 samples of a T=3, B=4 MLP, by band: 64 permutations of 4
    groups, 194 forward rows a Shapley sample."""
    schema = grid_schema(3, 4, n_classes)
    model = build(ModelSpec(Architecture.MLP, width=8), schema, seed=3)
    samples = np.random.default_rng(11).normal(size=(30, 3, 4)).astype(DTYPE)
    return run_estimator(tag, model, samples, feature_groups(schema, GroupingAxis.BY_BAND),
                         ExplainBudget(n_permutations=64, ensemble_size=3, noise_scale=0.2),
                         seed=5, baseline=samples.mean(axis=0),
                         noise_range=np.ones((3, 4), DTYPE), sample_ids=range(100, 130))


# Saves every tag's and head's scores and stderr to argv[2], in blocks of
# FORKED_BLOCK_ROWS forward rows, with `_svs_values` and `_gb_rows` wrapped to
# append "<function> <pid>" for every replica of every block to argv[1];
# exits 1 if a child process is left. This process's first block waits until
# a forked lane has recorded one.
ESTIMATES = """
import os, sys
from pathlib import Path
import numpy as np
from conftest import await_a_lane
from roarsel import attribution
from test_estimator_lanes import FORKED_BLOCK_ROWS, HEADS, TAGS, estimate

parent, calls = os.getpid(), Path(sys.argv[1])

def recording(name):
    real = getattr(attribution, name)
    def recorded(*args, **kwargs):
        with open(calls, "a") as f:
            f.write(f"{name} {os.getpid()}\\n")
        if os.getpid() == parent:
            await_a_lane(lambda: len(set(calls.read_text().split()[1::2])) >= 2)
        return real(*args, **kwargs)
    setattr(attribution, name, recorded)

recording("_svs_values")
recording("_gb_rows")
attribution._BLOCK_ROWS = FORKED_BLOCK_ROWS
arrays = {}
for head, n_classes in HEADS.items():
    for tag in TAGS:
        m = estimate(tag, n_classes)
        arrays[f"{tag} {head} scores"] = m.scores
        if m.stderr is not None:
            arrays[f"{tag} {head} stderr"] = m.stderr
np.savez(sys.argv[2], **arrays)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(0)
sys.exit("a child process outlived the estimator")
"""


def test_forked_blocks_give_the_one_lane_bytes(tmp_path):
    """Every tag, forked in small blocks, against one lane in the default ones."""
    calls, out = tmp_path / "calls", tmp_path / "forked.npz"
    done = run_pinned("-c", ESTIMATES, str(calls), str(out))
    assert done.returncode == 0, done.stderr
    calls = [line.split() for line in calls.read_text().splitlines()]
    assert len({pid for _, pid in calls}) >= 2  # the lanes really forked
    # 3 gb blocks a call, with 1, 3 and 3 replicas, for each head
    assert sum(name == "_gb_rows" for name, _ in calls) == 2 * 3 * (1 + 3 + 3)
    with np.load(out) as forked:
        assert len(forked.files) == 2 * (len(TAGS) + 1)
        for head, n_classes in HEADS.items():
            for tag in TAGS:
                m = estimate(tag, n_classes)
                assert forked[f"{tag} {head} scores"].tobytes() == m.scores.tobytes()
                if m.stderr is not None:
                    assert forked[f"{tag} {head} stderr"].tobytes() == m.stderr.tobytes()


PLANT = {"n": 240, "t": 3, "b": 4, "signal_bands": [1, 3],
         "signal_steps": [0, 1, 2], "noise": 0.2}


def _config(tmp_path, budget, plans):
    cfg = {"seed": 5, "out_dir": str(tmp_path / "out"),
           "dataset": {"path": str(tmp_path / "data"), "plant": PLANT},
           "train": {"max_epochs": 6, "patience": 2, "batch_size": 32,
                     "learning_rate": 0.003},
           "model": {"architecture": "mlp", "width": 16},
           "budget": budget, "plans": plans}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path)]) == 0
    return str(path)


# Runs `roar` in blocks of at most 400 forward rows, with `_svs_values`
# wrapped to append the pid of every process that explains to argv[2], then
# exits with roar's code once no child is left. This process's first block
# waits until a forked lane has recorded one.
RECORDING_ROAR = """
import os, sys
from pathlib import Path
from conftest import await_a_lane
from roarsel import attribution
from roarsel.cli import main

attribution._BLOCK_ROWS = 400

parent, svs_values, pids = os.getpid(), attribution._svs_values, Path(sys.argv[2])

def recording_svs_values(*args, **kwargs):
    with open(pids, "a") as f:
        f.write(f"{os.getpid()}\\n")
    if os.getpid() == parent:
        await_a_lane(lambda: len(set(pids.read_text().split())) >= 2)
    return svs_values(*args, **kwargs)

attribution._svs_values = recording_svs_values
code = main(["roar", "--config", sys.argv[1], "--out", sys.argv[3]])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child process outlived roar")
"""


def test_forked_roar_writes_the_one_lane_bytes(tmp_path):
    # 24 samples: 12 Shapley blocks by band (G=4) and 8 by time step (G=3)
    # forked, 2 and 1 in one lane
    path = _config(tmp_path, {"n_samples": 24, "n_permutations": 64, "ensemble_size": 2},
                   [{"axis": "by_band", "order": "least_first", "estimator_tag": "svs"},
                    {"axis": "by_timestep", "order": "most_first",
                     "estimator_tag": "sgs-svs"}])
    assert main(["roar", "--config", path, "--out", str(tmp_path / "one")]) == 0
    pids = tmp_path / "pids"
    done = run_pinned("-c", RECORDING_ROAR, path, str(pids), str(tmp_path / "forked"))
    assert done.returncode == 0, done.stderr
    artifacts = sorted(p.name for p in (tmp_path / "one").iterdir()
                       if p.name.endswith((".curve.json", ".curve.csv", ".svg")))
    assert len(artifacts) == 6
    for name in artifacts:
        assert (tmp_path / "forked" / name).read_bytes() == \
               (tmp_path / "one" / name).read_bytes(), name
    assert len(set(pids.read_text().split())) >= 2  # the lanes really forked


# all training samples are explained, 64 * 3 + 2 forward rows each by band,
# so this is the first sample of block 1
FAILING_ID = attribution._BLOCK_ROWS // (64 * 3 + 2)


def failing_block(noised):
    """``_noised`` that raises an ``EstimatorError`` in the block that
    explains training sample ``FAILING_ID``."""
    def noised_or_fail(samples, streams, scale):
        if any(rng.bit_generator.seed_seq.entropy[1] == FAILING_ID for rng in streams):
            raise EstimatorError(f"the block of sample {FAILING_ID} fails")
        return noised(samples, streams, scale)
    return noised_or_fail


# Runs `roar` with argv[2]'s behaviour in every forked lane: `fail` raises in
# the block of FAILING_ID, and `lane_exit` ends the lane at its first block.
# Either first writes the lane's pid to the marker file argv[3]. This
# process's first block waits until that lane has exited, so a lane claims
# block 1 whatever the timing. Prints this process's pid and the first
# sample id of every block it explained, as JSON.
SPLIT_NOISED = """
import json, os, sys, time
from pathlib import Path
from roarsel import attribution
from roarsel.cli import main
from test_estimator_lanes import failing_block

parent, noised, marker = os.getpid(), attribution._noised, Path(sys.argv[3])
failing, explained = failing_block(noised), []

def mark():
    Path(f"{marker}.tmp").write_text(str(os.getpid()))
    os.replace(f"{marker}.tmp", marker)

def fail(samples, streams, scale):
    try:
        return failing(samples, streams, scale)
    except Exception:
        mark()
        raise

def lane_exit(samples, streams, scale):
    mark()
    os._exit(1)

def split_noised(samples, streams, scale):
    if os.getpid() != parent:
        return globals()[sys.argv[2]](samples, streams, scale)
    if not explained:
        for _ in range(600):
            if marker.exists():
                break
            time.sleep(0.1)
        os.waitid(os.P_PID, int(marker.read_text()), os.WEXITED | os.WNOWAIT)
    explained.append(int(streams[0].bit_generator.seed_seq.entropy[1]))
    return noised(samples, streams, scale)

attribution._noised = split_noised
try:
    code = main(["roar", "--config", sys.argv[1]])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        print("a child process outlived roar", file=sys.stderr)
    print(json.dumps({"pid": parent, "blocks": sorted(set(explained))}))
sys.exit(code)
"""

EXPLAIN_ALL = {"n_permutations": 64, "ensemble_size": 2}
ONE_PLAN = [{"axis": "by_band", "order": "least_first", "estimator_tag": "sgs-svs"}]


def test_an_estimator_error_in_a_lane_exits_3_with_the_one_lane_message(
        tmp_path, monkeypatch, capsys):
    path = _config(tmp_path, EXPLAIN_ALL, ONE_PLAN)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(attribution, "_noised", failing_block(attribution._noised))
        assert main(["roar", "--config", path]) == 3
    one_lane = capsys.readouterr().err
    assert one_lane == ("error: sgs-svs_least_first_by_band: cycle 0 failed: "
                        f"the block of sample {FAILING_ID} fails\n")
    marker = tmp_path / "failed"
    done = run_pinned("-c", SPLIT_NOISED, path, "fail", str(marker), timeout=60)
    assert done.returncode == 3
    assert done.stderr == one_lane
    parent = json.loads(done.stdout)
    assert int(marker.read_text()) != parent["pid"]  # a forked lane raised it
    # once the lane failed, this process claimed no block after its first
    assert parent["blocks"] == [0]


def test_a_lane_that_dies_exits_3_naming_its_lost_blocks(tmp_path):
    path = _config(tmp_path, EXPLAIN_ALL, ONE_PLAN)
    done = run_pinned("-c", SPLIT_NOISED, path, "lane_exit", str(tmp_path / "exited"),
                      timeout=60)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: sgs-svs_least_first_by_band: cycle 0 failed: "
                                  "an explaining process exited without the scores "
                                  "of blocks [")
    assert "outlived" not in done.stderr
