import hashlib
import json
import random

import pytest

import ordermotion as om
from ordermotion import serialize
from ordermotion.cli import main
from _support import fixed_pair_planted, jitter_same_order_type, rand_pair, rand_tuple


@pytest.fixture
def files(tmp_path):
    def write(name, P):
        path = tmp_path / name
        serialize.dump_point_tuple(P, path)
        return str(path)

    return tmp_path, write


def test_ordertype_writes_signs(files):
    tmp, write = files
    p = write("p.json", om.point_tuple([[0, 0], [4, 0], [2, 4], [2, 1]]))
    out = tmp / "ot.json"
    assert main(["ordertype", "-i", p, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 4 and obj["d"] == 2 and len(obj["signs"]) == 4


def test_ordertype_malformed_rational_exits_2(files):
    tmp, _ = files
    bad = tmp / "bad.json"
    bad.write_text('{"d": 2, "points": [["1/0", "0"], ["1", "0"], ["0", "1"]]}')
    assert main(["ordertype", "-i", str(bad)]) == 2


def test_ordertype_degenerate_exits_3(files, capsys):
    tmp, write = files
    p = write("p.json", om.point_tuple([[0, 0], [1, 1], [2, 2], [0, 1]]))
    assert main(["ordertype", "-i", p]) == 3
    assert "[0, 1, 2]" in capsys.readouterr().err


def test_ordertype_csv_format(files, capsys):
    _, write = files
    p = write("p.json", om.point_tuple([[0, 0], [4, 0], [2, 4], [2, 1]]))
    assert main(["ordertype", "-i", p, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "i0,i1,i2,sign"


def test_cost_identity_total_zero(files):
    tmp, write = files
    rng = random.Random(1)
    P = rand_tuple(rng, 4, 2)
    p = write("p.json", P)
    out = tmp / "plan.json"
    assert main(["cost", "-i", p, p, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["total"] == 0


def test_cost_check_bound_and_csv_consistency(files):
    tmp, write = files
    rng = random.Random(2)
    A, B = rand_pair(rng, 5, 2)
    pa, pb = write("a.json", A), write("b.json", B)
    out = tmp / "plan.json"
    assert main(["cost", "-i", pa, pb, "--mirror-branch", "--check-bound", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    csv_out = tmp / "plan.csv"
    assert main(["cost", "-i", pa, pb, "--mirror-branch", "--format", "csv", "-o", str(csv_out)]) == 0
    rows = csv_out.read_text().strip().splitlines()[1:]
    assert sum(int(r.rsplit(",", 1)[1]) for r in rows) == obj["total"]


def test_cost_degenerate_endpoint_exits_3(files):
    _, write = files
    rng = random.Random(3)
    good = write("good.json", rand_tuple(rng, 4, 2))
    bad = write("bad.json", om.point_tuple([[0, 0], [1, 1], [2, 2], [0, 1]]))
    assert main(["cost", "-i", bad, good]) == 3


def test_plan_odd_dimension(files):
    tmp, write = files
    rng = random.Random(4)
    A, B = rand_pair(rng, 5, 3)
    pa, pb = write("a.json", A), write("b.json", B)
    out = tmp / "plan.json"
    assert main(["plan", "-i", pa, pb, "--check-bound", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["total"] <= 7
    assert [seg["kind"] for seg in obj["segments"]] == [
        "linear",
        "zero-cost-scaling",
        "linear",
    ]


def test_plan_odd_dimension_golden_bytes(files):
    # Pins the exact plan (sign choice, certified eta, perturbed target).
    tmp, write = files
    A, B = rand_pair(random.Random(5), 7, 5)
    pa, pb = write("a.json", A), write("b.json", B)
    out = tmp / "plan.json"
    assert main(["plan", "-i", pa, pb, "--check-bound", "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a212c6e73410f70365ae2bb384dac0ac78bba1a7a75fa9d668ee9a012e1a47b3"


def _planted_shared_root_pair(rng):
    # Two target points are the source points negated: both pass through the
    # origin at x = 1, so every subset holding both degenerates there.
    P = rand_tuple(rng, 5, 2)
    while True:
        free = rand_tuple(rng, 3, 2).points
        Q = om.point_tuple([[-c for c in P.points[0]], [-c for c in P.points[1]], *free])
        if om.is_general_position(Q):
            return P, Q


def test_cost_shared_roots_golden_bytes(files):
    # Pins the direct motion's ledger and its shared-root report.
    tmp, write = files
    A, B = _planted_shared_root_pair(random.Random(11))
    pa, pb = write("a.json", A), write("b.json", B)
    out = tmp / "plan.json"
    assert main(["cost", "-i", pa, pb, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["needs_serialization"] is True
    assert [[0, 1, 2], [0, 1, 3]] in obj["shared_roots"]
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "baeba410ae182f6cc2c96f61c4005bbfc8ec7117fa5395e5041d6355d391340f"


def test_plan_reflected_branch_golden_bytes(files):
    # Pins an even-d plan that takes the reflected branch, where every
    # subset holding points 0 and 1 degenerates at the same time.
    tmp, write = files
    A, B = fixed_pair_planted(random.Random(4), 5, 2)
    pa, pb = write("a.json", A), write("b.json", B)
    out = tmp / "plan.json"
    assert main(["plan", "-i", pa, pb, "--check-bound", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert [seg["kind"] for seg in obj["segments"]] == ["linear", "zero-cost-scaling"]
    assert obj["needs_serialization"] is True
    assert [[0, 1, 2], [0, 1, 3]] in obj["shared_roots"]
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "62b88e762c756149128d38ffdd77a81ea45e11e59669d37041635cf99e2a202d"


def test_goodrot_measure_d4_golden_bytes(files):
    # Pins the good-rotation decisions at d=4; one of the 24 samples is bad.
    tmp, write = files
    rng = random.Random(13)
    while True:
        A, B = rand_pair(rng, 5, 4)
        if om.orient(A.points) == om.orient(B.points):
            break
    pa, pb = write("a.json", A), write("b.json", B)
    out = tmp / "rot.json"
    assert main(["goodrot", "-i", pa, pb, "-N", "24", "--seed", "3", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["mode"] == "measure" and obj["n_good"] == 23
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "c6f196df0ddcdd67b6a41c911b8bc8252c46051de49ec225f39e94e05a768f96"


def test_plan_rejects_tries(files):
    _, write = files
    A, B = rand_pair(random.Random(4), 5, 3)
    pa, pb = write("a.json", A), write("b.json", B)
    with pytest.raises(SystemExit) as exc:
        main(["plan", "-i", pa, pb, "--tries", "4"])
    assert exc.value.code == 2


def test_blowup_all_pass_and_determinism(files):
    tmp, write = files
    Q = om.point_tuple([[0, 0], [4, 0], [2, 4]])
    q = write("q.json", Q)
    out1, out2 = tmp / "b1.json", tmp / "b2.json"
    args = ["blowup", "-i", q, q, "--m", "3", "--samples", "20", "--seed", "7"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text())
    assert obj["report"]["all_pass"] is True
    assert obj["certificate"] == 54
    assert obj["parameters"]["seed"] == 7


def test_blowup_mismatched_inputs_exit_3(files):
    _, write = files
    Q = om.point_tuple([[0, 0], [4, 0], [2, 4], [2, 1]])
    q = write("q.json", Q)
    qm = write("qm.json", om.mirror(Q))
    assert main(["blowup", "-i", q, qm, "--m", "2", "--seed", "0"]) == 3


def test_blowup_seed_required(files, capsys):
    _, write = files
    q = write("q.json", om.point_tuple([[0, 0], [4, 0], [2, 4]]))
    with pytest.raises(SystemExit) as exc:
        main(["blowup", "-i", q, q, "--m", "2"])
    assert exc.value.code == 2


def test_goodrot_measure_mode(files):
    tmp, write = files
    a = write("a.json", om.point_tuple([[0, 0], [2, 0], [1, 2]]))
    b = write("b.json", om.point_tuple([[0, 0], [3, 1], [1, 3]]))
    out = tmp / "rot.json"
    assert main(["goodrot", "-i", a, b, "-N", "200", "--seed", "5", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["mode"] == "measure"
    assert obj["estimate"] > 0.5
    assert obj["dichotomy_failures"] == 0
    assert obj["seed"] == 5


def test_goodrot_zero_samples_exits_2(files):
    _, write = files
    a = write("a.json", om.point_tuple([[0, 0], [2, 0], [1, 2]]))
    assert main(["goodrot", "-i", a, a, "-N", "0", "--seed", "1"]) == 2


def test_goodrot_experiment_mode(files):
    tmp, write = files
    rng = random.Random(6)
    P = rand_tuple(rng, 5, 2, span=8)
    Q = jitter_same_order_type(P, rng)
    p, q = write("p.json", P), write("q.json", Q)
    out = tmp / "exp.json"
    assert main(["goodrot", "-i", p, q, "-N", "5", "--seed", "2", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["mode"] == "experiment"
    assert len(obj["per_rotation_costs"]) == 5


def test_goodrot_rerun_byte_identical(files):
    tmp, write = files
    a = write("a.json", om.point_tuple([[0, 0], [2, 0], [1, 2]]))
    b = write("b.json", om.point_tuple([[0, 0], [3, 1], [1, 3]]))
    out1, out2 = tmp / "r1.json", tmp / "r2.json"
    args = ["goodrot", "-i", a, b, "-N", "50", "--seed", "9"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_aspect_with_alpha(files):
    tmp, write = files
    rng = random.Random(7)
    p = write("p.json", rand_tuple(rng, 5, 2, span=8))
    out = tmp / "aspect.json"
    assert main(["aspect", "-i", p, "--alpha", "50", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["triples"]) == 10
    assert obj["non_elongated"] is True


def test_oracle_agreement(files):
    tmp, write = files
    rng = random.Random(8)
    A, B = rand_pair(rng, 5, 2)
    pa, pb = write("a.json", A), write("b.json", B)
    out = tmp / "oracle.json"
    assert main(["oracle", "-i", pa, pb, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["agree"] is True
    assert obj["linear_cost_total"] == obj["discretized_total"]


def test_missing_input_file_exits_2(tmp_path):
    assert main(["ordertype", "-i", str(tmp_path / "nope.json")]) == 2
