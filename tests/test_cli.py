"""Command line behavior, exercised in process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsim
from dsim.cli import main
from dsim.bounds_analysis import thm2_bound, verify_trial
from dsim.bitcodes import BitSource, read_header
from dsim.distributions import geometric, parse_spec
from dsim.integer_codec import simulate as int_simulate
from dsim.rng import RandomSource


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncodeDecode:
    def test_round_trip(self, tmp_path, capsys):
        blob = tmp_path / "g.dsim"
        code, out, err = run(["encode", "--dist", "geometric:p=0.7",
                              "-n", "500", "--seed", "42", "-o", str(blob)], capsys)
        assert code == 0 and err == ""
        assert "n=500" in out and "payload_bits=" in out

        csv = tmp_path / "g.csv"
        code, out, err = run(["decode", str(blob), "--seed", "7", "-o", str(csv)], capsys)
        assert code == 0 and err == ""
        lines = csv.read_text().splitlines()
        assert lines[0] == "value" and len(lines) == 501
        values = np.array([int(v) for v in lines[1:]])

        data, multiset = int_simulate(geometric(0.7), 500, RandomSource.from_seed(42))
        assert blob.read_bytes() == data
        assert np.array_equal(np.sort(values), multiset)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            blob = tmp_path / f"{tag}.dsim"
            csv = tmp_path / f"{tag}.csv"
            run(["encode", "--dist", "exp:lambda=1",
                 "-n", "300", "--seed", "11", "-o", str(blob)], capsys)
            run(["decode", str(blob), "--seed", "12", "-o", str(csv)], capsys)
            outputs.append((blob.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_decode_real_values_use_full_precision(self, tmp_path, capsys):
        blob = tmp_path / "u.dsim"
        run(["encode", "--dist", "triangular",
             "-n", "50", "--seed", "3", "-o", str(blob)], capsys)
        code, out, _ = run(["decode", str(blob), "--seed", "4"], capsys)
        assert code == 0
        values = [float(v) for v in out.splitlines()[1:]]
        assert len(values) == 50 and all(0.0 <= v < 1.0 for v in values)
        # %.17g survives a parse round trip exactly
        assert out == "value\n" + "\n".join("%.17g" % v for v in values) + "\n"

    def test_decode_missing_file(self, capsys):
        code, _, err = run(["decode", "/no/such/file", "--seed", "1"], capsys)
        assert code == 1 and err.startswith("error: io:")

    def test_decode_corrupt_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.dsim"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        code, _, err = run(["decode", str(bad), "--seed", "1"], capsys)
        assert code == 1 and err.startswith("error: container:")

    def test_decode_truncated_payload(self, tmp_path, capsys):
        blob = tmp_path / "t.dsim"
        run(["encode", "--dist", "zipf:s=3",
             "-n", "100", "--seed", "5", "-o", str(blob)], capsys)
        blob.write_bytes(blob.read_bytes()[:25])
        code, _, err = run(["decode", str(blob), "--seed", "1"], capsys)
        assert code == 1 and err.startswith("error: container:")

    def test_decode_corrupt_payload(self, tmp_path, capsys):
        blob = tmp_path / "z.dsim"
        run(["encode", "--dist", "zipf:s=3",
             "-n", "100", "--seed", "5", "-o", str(blob)], capsys)
        data = blob.read_bytes()
        blob.write_bytes(data[:22] + bytes(len(data) - 22))  # a valid header over an all-zero payload
        code, _, err = run(["decode", str(blob), "--seed", "1"], capsys)
        assert code == 1 and err.startswith("error: container:") and err.count("\n") == 1

    def test_bad_dist_spec(self, tmp_path, capsys):
        code, _, err = run(["encode", "--dist", "nosuch:p=1",
                            "-n", "5", "--seed", "1", "-o", str(tmp_path / "x")], capsys)
        assert code == 1 and err.startswith("error:")

    # each draw in its own bin, whose mass is below the ulp of the cdf there
    @pytest.mark.parametrize("lam", ["1e-15", "1e-16", "1e-17"])
    def test_slowly_decaying_law_round_trip(self, lam, tmp_path, capsys):
        blob, csv = tmp_path / "e.dsim", tmp_path / "e.csv"
        assert run(["encode", "--dist", f"exp:lambda={lam}", "-n", "10000", "--seed", "1",
                    "-o", str(blob)], capsys)[0] == 0
        assert run(["decode", str(blob), "--seed", "2", "-o", str(csv)], capsys)[0] == 0
        lines = csv.read_text().splitlines()
        values = np.array([float(v) for v in lines[1:]])
        assert lines[0] == "value" and values.size == 10**4
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    def test_slowly_decaying_law_decodes_to_its_law(self):
        name, stat, ok = verify_trial(parse_spec("exp:lambda=1e-17"), 2000, RandomSource.from_seed(17))
        assert name == "ks" and ok, f"KS={stat:.4f}"

    # laws that parse_spec accepts but that overflow, lose all their mass to
    # one point, or draw past 2**63 - 1; a warning counts as a failure here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [
        "exp:lambda=1e-300", "exp:lambda=1e308", "exp:lambda=inf", "exp:lambda=1e-20",
        "pareto_flat:c=inf,lambda=2", "pareto_flat:c=2,lambda=inf", "pareto_flat:c=1e308,lambda=2",
        "geometric:p=1e-300", "zipf:s=inf",
    ])
    def test_extreme_law_fails_with_one_error_line(self, spec, tmp_path, capsys):
        code, out, err = run(["encode", "--dist", spec, "-n", "1000", "--seed", "1",
                              "-o", str(tmp_path / "x.dsim")], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_encode_to_stdout(self, capsysbinary):
        assert main(["encode", "--dist", "geometric:p=0.7", "-n", "50", "--seed", "3", "-o", "-"]) == 0
        out, err = capsysbinary.readouterr()
        assert out == int_simulate(geometric(0.7), 50, RandomSource.from_seed(3))[0]
        assert err.startswith(b"wrote -: scheme=int n=50")

    def test_decode_onto_its_own_input(self, tmp_path, capsys):
        blob = tmp_path / "g.dsim"
        run(["encode", "--dist", "geometric:p=0.7", "-n", "20", "--seed", "1", "-o", str(blob)], capsys)
        assert run(["decode", str(blob), "--seed", "2", "-o", str(blob)], capsys)[0] == 0
        assert len(blob.read_text().splitlines()) == 21


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", [
        ["encode", "--dist", "geometric:p=0.7", "-n", "10", "--seed", "1"],
        ["decode", "BLOB", "--seed", "1"],
        ["bench", "--dist", "geometric:p=0.7", "--n-list", "10", "--trials", "2", "--seed", "1"],
        ["exact-length", "--dist", "triangular", "--n-list", "10"],
    ], ids=lambda argv: argv[0])
    def test_output_into_missing_directory(self, argv, tmp_path, capsys):
        blob = tmp_path / "g.dsim"
        run(["encode", "--dist", "geometric:p=0.7", "-n", "10", "--seed", "1", "-o", str(blob)], capsys)
        argv = [str(blob) if arg == "BLOB" else arg for arg in argv]
        code, _, err = run(argv + ["-o", str(tmp_path / "missing" / "out")], capsys)
        assert code == 1 and err.startswith("error: io:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bench_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        from dsim import bounds_analysis

        calls = []
        monkeypatch.setattr(bounds_analysis, "empirical_length", lambda *args: calls.append(args))
        code, _, err = run(["bench", "--dist", "exp:lambda=1", "--n-list", "10000,100000",
                            "--trials", "20", "--seed", "1",
                            "-o", str(tmp_path / "missing" / "x.csv")], capsys)
        assert code == 1 and err.startswith("error: io:")
        assert calls == []


class TestPayloadReaders:
    """Only the codec builds a reader over a container's payload; the front
    door reads the header alone."""

    @pytest.fixture
    def readers(self, monkeypatch):
        built = []
        init = BitSource.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BitSource, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("spec", ["geometric:p=0.7", "triangular", "exp:lambda=1"])
    def test_one_reader_per_decoded_container(self, spec, readers, tmp_path, capsys):
        blob = tmp_path / "x.dsim"
        assert run(["encode", "--dist", spec, "-n", "100", "--seed", "1", "-o", str(blob)], capsys)[0] == 0
        assert readers == []
        dsim.desimulate_any(blob.read_bytes(), RandomSource.from_seed(2))
        assert len(readers) == 1
        assert run(["decode", str(blob), "--seed", "2"], capsys)[0] == 0
        assert len(readers) == 2


class TestBench:
    def test_csv_shape_and_slope_row(self, capsys):
        code, out, err = run(["bench", "--dist", "geometric:p=0.7",
                              "--n-list", "100,1000", "--trials", "5", "--seed", "9"], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "scheme,dist,n,trials,mean_bits,stderr_bits,bound_bits"
        assert len(lines) == 4
        row = lines[1].split(",")
        assert row[:4] == ["int", "geometric:p=0.7", "100", "5"]
        assert float(row[6]) == pytest.approx(thm2_bound(1.5, np.log(10 / 3), 100), rel=1e-12)
        slope_row = lines[3].split(",")
        assert slope_row[2] == "slope"
        assert 0.0 < float(slope_row[4]) < 1.0

    def test_deterministic(self, capsys):
        argv = ["bench", "--dist", "triangular",
                "--n-list", "50,200", "--trials", "4", "--seed", "2"]
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second


class TestBound:
    def test_prints_value(self, capsys):
        code, out, err = run(["bound", "--theorem", "2", "--c", "1.5",
                              "--lambda", "1.2039728043259361", "-n", "10000"], capsys)
        assert code == 0 and err == ""
        assert float(out) == pytest.approx(9745.866477406436, rel=1e-12)

    def test_missing_flag(self, capsys):
        code, _, err = run(["bound", "--theorem", "4", "--c", "2", "--lambda", "2", "-n", "10"], capsys)
        assert code == 2 and "needs --f0" in err

    def test_bad_domain(self, capsys):
        code, _, err = run(["bound", "--theorem", "1", "--c", "2", "--lambda", "1", "-n", "10"], capsys)
        assert code == 1 and err.startswith("error:")


class TestExactLength:
    def test_csv(self, capsys):
        code, out, err = run(["exact-length", "--dist", "triangular", "--n-list", "10,100"], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "dist,n,kmax,expected_bits"
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert len(values) == 2 and values[0] < values[1]

    def test_rejects_halfline_dist(self, capsys):
        code, _, err = run(["exact-length", "--dist", "exp:lambda=1", "--n-list", "10"], capsys)
        assert code == 1 and err.startswith("error:")

    def test_rejects_negative_kmax(self, capsys):
        code, out, err = run(["exact-length", "--dist", "triangular", "--n-list", "10", "--kmax", "-1"], capsys)
        assert code == 1 and out == "" and err.startswith("error:") and "k_max" in err


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run(["verify", "--dist", "geometric:p=0.7",
                            "-n", "2000", "--trials", "5", "--seed", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("trial ") for line in lines[:5])
        assert lines[5].startswith("passed 5/5")

    def test_failing_run_exits_nonzero(self, capsys, monkeypatch):
        import dsim.bounds_analysis as bounds_analysis

        original = bounds_analysis.verify_trial

        def always_fail(dist, n, rng):
            name, stat, _ = original(dist, n, rng)
            return name, stat, False

        monkeypatch.setattr(bounds_analysis, "verify_trial", always_fail)
        code, out, _ = run(["verify", "--dist", "geometric:p=0.7",
                            "-n", "100", "--trials", "3", "--seed", "1"], capsys)
        assert code == 1 and "passed 0/3" in out

    def test_level_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dist", "geometric:p=0.7", "-n", "100", "--trials", "3",
                  "--seed", "1", "--alpha", "0.05"])
        assert exc.value.code == 2 and "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_rejects_no_trials(self, capsys, trials):
        code, out, err = run(["verify", "--dist", "geometric:p=0.7",
                              "-n", "100", "--trials", trials, "--seed", "1"], capsys)
        assert code == 1 and out == "" and err == "error: trials must be >= 1\n"


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        blob = tmp_path / "cli.dsim"
        proc = subprocess.run(
            [sys.executable, "-m", "dsim.cli", "encode",
             "--dist", "geometric:p=0.5", "-n", "20", "--seed", "8", "-o", str(blob)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        header = read_header(blob.read_bytes())
        assert header.n == 20


# Decodes a container through main and prints the peak RSS of the process's
# own memory in KiB.  ru_maxrss would not do: Linux carries it across exec,
# so it may hold the peak of the process that started this one.
DECODE_RSS_PROBE = """
import sys
from dsim.cli import main
assert main(["decode", sys.argv[1], "--seed", "2", "-o", sys.argv[2]]) == 0
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


class TestDecodeMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
    def test_decode_text_is_written_in_blocks(self, tmp_path):
        # 10**6 samples are 8 MiB as doubles, but their text as one list of
        # strings and one joined string took about 125 MiB more than at 10**5
        env = {**os.environ, "PYTHONPATH": str(Path(dsim.__file__).parents[1])}
        peaks = []
        for n in (10**5, 10**6):
            blob = tmp_path / f"{n}.dsim"
            blob.write_bytes(dsim.simulate_any(parse_spec("triangular"), n, RandomSource.from_seed(1)))
            proc = subprocess.run([sys.executable, "-c", DECODE_RSS_PROBE, str(blob), str(tmp_path / "x.csv")],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert len((tmp_path / "x.csv").read_text().splitlines()) == n + 1
            peaks.append(int(proc.stdout.split()[-1]))
        assert peaks[1] - peaks[0] < 40 * 1024, peaks


# Prints the scipy modules loaded by a fresh `import dsim`, then those loaded
# after one encode and one decode through main.
BOUNDARY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
import dsim
loaded = [scipy_modules()]
from dsim.cli import main
spec, blob, csv = sys.argv[1:]
assert main(["encode", "--dist", spec, "-n", "200", "--seed", "1", "-o", blob]) == 0
assert main(["decode", blob, "--seed", "2", "-o", csv]) == 0
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""

# Makes sys.meta_path refuse every scipy import.
REFUSE_SCIPY = """
import sys
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is refused")
        return None
sys.meta_path.insert(0, RefuseScipy())
from dsim.cli import main
"""

# Round-trips each law through main while scipy is refused, then checks that
# the refusal is in force.
NO_SCIPY_PROBE = REFUSE_SCIPY + """
stem, *specs = sys.argv[1:]
for spec in specs:
    assert main(["encode", "--dist", spec, "-n", "200", "--seed", "1", "-o", stem + ".dsim"]) == 0
    assert main(["decode", stem + ".dsim", "--seed", "2", "-o", stem + ".csv"]) == 0
    assert len(open(stem + ".csv").read().splitlines()) == 201
try:
    import scipy.special
except ModuleNotFoundError:
    print("refused")
"""

CODEC_SPECS = ["geometric:p=0.7", "zipf:s=3", "triangular", "exp:lambda=1"]


class TestImportBoundary:
    @pytest.fixture
    def env(self):
        return {**os.environ, "PYTHONPATH": str(Path(dsim.__file__).parents[1])}

    @pytest.mark.parametrize("spec", CODEC_SPECS)
    def test_codec_path_loads_no_analysis_stack(self, spec, tmp_path, env):
        proc = subprocess.run(
            [sys.executable, "-c", BOUNDARY_PROBE, spec, str(tmp_path / "x.dsim"), str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 201

    def test_codec_path_runs_where_scipy_is_refused(self, tmp_path, env):
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path / "x"), *CODEC_SPECS],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "refused"

    @pytest.mark.parametrize("argv", [
        ["bound", "--theorem", "3", "--f0", "2", "-n", "100"],
        ["bench", "--dist", "triangular", "--n-list", "100", "--trials", "2", "--seed", "1"],
        ["exact-length", "--dist", "triangular", "--n-list", "100"],
        ["verify", "--dist", "triangular", "-n", "100", "--trials", "2", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_analysis_without_scipy_prints_one_error_line(self, argv, env):
        proc = subprocess.run([sys.executable, "-c", REFUSE_SCIPY + "sys.exit(main(sys.argv[1:]))", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr


def test_import_loads_numpy_random_and_no_scipy():
    # numpy 2 imports numpy.random lazily; dsim imports it up front, so the
    # first RandomSource imports nothing (a caller may gc.freeze() after import)
    probe = ("import json, sys, dsim; print(json.dumps(['numpy.random' in sys.modules, "
             "sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(dsim.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, []]
