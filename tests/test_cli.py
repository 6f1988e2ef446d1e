import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import coinprimes
from coinprimes import verify
from coinprimes.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_table(capsys):
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5")
    assert rc == 0
    assert "pi_star=2" in out and "pi_s=4" in out and "<3,5>" in out


def test_compute_rejects_noncoprime(capsys):
    rc, _, err = run(capsys, "compute", "--a", "4", "--b", "6")
    assert rc == 2
    assert "coprime" in err


def test_compute_all_methods(capsys):
    rc, out, _ = run(capsys, "compute", "--a", "5", "--b", "7", "--method", "all")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("pair=")]
    assert len(lines) == 3
    assert all("pi_star=5" in l for l in lines)


def test_compute_csv_and_jsonl(capsys):
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == verify.CSV_HEADER
    assert out.splitlines()[1].startswith("3,5,7,2,4,")
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5", "--format", "jsonl")
    assert rc == 0
    obj = json.loads(out.splitlines()[0])
    assert obj["pi_star"] == 2 and obj["ms"] == 0


def test_compute_exact_margins(capsys):
    rc, out, _ = run(capsys, "compute", "--a", "3", "--b", "5", "--exact-margins")
    assert rc == 0
    assert "thm2 margin" in out


def test_compute_brute_cap(capsys):
    rc, _, err = run(capsys, "compute", "--a", "3", "--b", "2000003", "--method", "brute", "--brute-cap", "1000")
    assert rc == 3
    assert "error:" in err


def test_gaps_output(capsys):
    rc, out, _ = run(capsys, "gaps", "--a", "3", "--b", "5")
    assert rc == 0
    assert out.splitlines() == ["1\t-", "2\tp", "4\t-", "7\tp"]
    rc, out, _ = run(capsys, "gaps", "--a", "2", "--b", "7")
    assert rc == 0
    assert out.splitlines() == ["1\t-", "3\tp", "5\tp"]


def test_gaps_empty(capsys):
    rc, out, _ = run(capsys, "gaps", "--a", "1", "--b", "5")
    assert rc == 0
    assert out == ""


def test_verify_coj2_small(capsys):
    rc, out, _ = run(capsys, "verify", "coj2", "--a-max", "4", "--b-max", "60", "--b-rule", "upto")
    assert rc == 0
    assert "PASS" in out
    assert "exception 3,5 (expected)" in out


def test_verify_coj2_partial_grid(capsys):
    # grid too small to contain (3,7); the expected set shrinks with it
    rc, out, _ = run(capsys, "verify", "coj2", "--a", "3", "--b-max", "6", "--b-rule", "upto")
    assert rc == 0
    assert "exception 3,4 (expected)" in out and "3,7" not in out


def test_verify_thm1_case(capsys):
    rc, out, _ = run(capsys, "verify", "thm1", "--case", "4")
    assert rc == 0
    assert "PASS: thm1 case 4" in out


def test_verify_thm3_single(capsys):
    rc, out, _ = run(capsys, "verify", "thm3", "--a", "3")
    assert rc == 0
    assert "PASS: thm3 a=3" in out


def test_verify_coj1_small(capsys):
    rc, out, _ = run(capsys, "verify", "coj1", "--a-max", "3", "--b-max", "30")
    assert rc == 0
    assert "equality 3,5 (expected)" in out


def test_verify_bounds_rs(capsys):
    rc, out, _ = run(capsys, "verify", "bounds", "--check", "rs", "--x-max", "1e5")
    assert rc == 0
    assert "rosser-schoenfeld" in out


def test_bad_inputs(capsys):
    rc, _, err = run(capsys, "verify", "thm3", "--a-range", "5:3")
    assert rc == 2
    rc, _, err = run(capsys, "verify", "thm3", "--a-range", "x:y")
    assert rc == 2
    rc, _, _ = run(capsys, "verify", "nothing")
    assert rc == 2


def test_corrupt_checkpoint_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    argv = ("verify", "coj2", "--a-max", "3", "--b-max", "10", "--b-rule", "upto", "--resume", str(bad))
    good = verify.record_to_dict(verify.evaluate_pair(3, 4, 5, 2, 3))
    # hand-edited records: counts that cannot be (pi_star > pi_s), and an infinite threshold
    tampered = [
        (json.dumps(dict(good, pi_star=7)) + "\n").encode(),
        json.dumps(good).replace('"thm2_rhs": ' + repr(good["thm2_rhs"]), '"thm2_rhs": 1e999').encode() + b"\n",
    ]
    assert b"1e999" in tampered[1]
    bad.write_text(json.dumps(good) + "\n")  # the untampered record is reused
    assert run(capsys, *argv)[0] == 0
    # not JSON, not UTF-8, nested past the parser's recursion limit, an integer past the digit limit
    for payload in [b"garbage\n", b'\xff\xfe{"schema": 1}\n', b"[" * 100_000 + b"\n", b"9" * 5000 + b"\n"] + tampered:
        bad.write_bytes(payload)
        rc, _, err = run(capsys, *argv)
        assert rc == 4, payload[:20]
        assert "error:" in err


def test_grid_csv_digest(tmp_path, capsys):
    """The coj2 grid a in [3,20], b <= 50a^2 (86,974 pairs): every byte, thm2_rhs digits included."""
    out = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, "verify", "coj2", "--a-range", "3:20", "--format", "csv", "--out", str(out))
    assert rc == 0
    want = "b3f367dae0575f33ea77bcc8230bd1b8e9deadb8561c646d7ff5e7ddf3adf319"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_grid_resume_csv_digest(tmp_path, capsys):
    """The same grid resumed from a 90% checkpoint whose last line is torn: the same bytes."""
    ck = tmp_path / "ck.jsonl"
    fresh = tmp_path / "fresh.csv"
    argv = ("verify", "coj2", "--a-range", "3:20", "--resume", str(ck), "--format", "csv", "--out")
    assert run(capsys, *argv, str(fresh))[0] == 0
    lines = ck.read_text().splitlines(keepends=True)
    assert hashlib.sha256("".join(sorted(lines)).encode()).hexdigest() == (
        "75602f6aea551d6653c738c919321f9112f4a28c2bacd48f0034d6d30b959d79"
    )
    keep = set(random.Random(9).sample(range(len(lines)), round(0.9 * len(lines))))
    torn = next(line for i, line in enumerate(lines) if i not in keep)
    ck.write_text("".join(line for i, line in enumerate(lines) if i in keep) + torn[: len(torn) // 2])
    resumed = tmp_path / "resumed.csv"
    assert run(capsys, *argv, str(resumed))[0] == 0
    want = "b3f367dae0575f33ea77bcc8230bd1b8e9deadb8561c646d7ff5e7ddf3adf319"
    assert hashlib.sha256(resumed.read_bytes()).hexdigest() == want
    assert len(ck.read_text().splitlines()) == len(lines)


def test_import_leaves_mpmath_unloaded():
    """mpmath is imported only when a guard escalates to intervals, not by importing the package."""
    src = os.path.dirname(os.path.dirname(coinprimes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, coinprimes, coinprimes.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_csv_out_threads_identical(tmp_path, capsys):
    one = tmp_path / "t1.csv"
    four = tmp_path / "t4.csv"
    rc1, _, _ = run(capsys, "verify", "coj2", "--a-max", "6", "--format", "csv", "--out", str(one))
    rc4, _, _ = run(capsys, "verify", "coj2", "--a-max", "6", "--format", "csv", "--out", str(four), "--threads", "4")
    assert rc1 == rc4 == 0
    assert one.read_bytes() == four.read_bytes()
    header = one.read_text().splitlines()[0]
    assert header == verify.CSV_HEADER


# (argv, exit code, sha256 of the full stdout): every byte these scan and sweep
# paths print is pinned, so a refactor of them cannot change the output unseen
GOLDEN = [
    ("verify thm3 --a-range 3:10", 0, "f5e541fc98f829519984ab736272f5d0cd5e1ee2d3ef08daa25a59261e4414bb"),
    ("verify coj1 --a-max 10", 0, "ee111942a044977e9bf8673a4ad2f6fef0b3f7e15cb2861d9cbb9f1753553014"),
    ("verify thm1 --case 3", 0, "e94f3db821643ca6e56228d84bf5790d126e31c5de3ee9775faf3214558a5744"),
    ("verify thm1 --case 4", 0, "1058fa7d6a133becf559ed71a7d64189b5e0094c767df6503ebd63c56d04ffcd"),
    (
        "verify thm1 --a-range 1:10 --b-rule upto --b-max 200 --format csv",
        0,
        "4db5ffb6728367ab0b3a644100eda63034ee720cc6caf55ebbcb2648097c61da",
    ),
    ("verify thm1 --case 1", 0, "835f522008394481af34fd2769b0feec6371e4b3e9357692d79d2caef500e9c2"),
    ("verify thm1 --case 2", 0, "d926a453ae5af08be667d5faca07860b46abdcbbfd0536158be11b715d0eec6f"),
    ("verify bounds --check all --seed 1", 0, "439f3ab07f575b6967b9c123c8baee5088f06f19b147787c8984d75a3101e486"),
]


@pytest.mark.parametrize("argv,want_rc,want_sha256", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(capsys, argv, want_rc, want_sha256):
    rc, out, _ = run(capsys, *argv.split())
    assert rc == want_rc
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha256, out[-2000:]


def test_public_names_resolve():
    for name in coinprimes.__all__:
        assert hasattr(coinprimes, name), name
