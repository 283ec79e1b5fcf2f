import json
import os
import struct
import subprocess
import sys
import time

import pytest

from twistcert.cli import main
from twistcert.congruence import RootSpec, quotient_closure, root_matrix, twist_gen


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out) if out else None
    return code, payload, err


EXAMPLE = "d1^-2 c1^-2 a1 d1^-2 b2 b1"


def write_matrix(tmp_path, m, name="matrix.txt"):
    path = tmp_path / name
    path.write_text("\n".join(" ".join(str(x) for x in row) for row in m.m.rows) + "\n")
    return str(path)


def test_eval_example(capsys):
    code, payload, _ = run_json(capsys, "eval", EXAMPLE, "--genus", "2")
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["matrix"] == [[1, 0, 3, -2], [0, 1, -2, 2], [-1, 0, -2, 2], [0, -1, 2, -1]]
    assert payload["charpoly"] == [1, 1, -2, 1, 1]


def test_eval_human_output(capsys):
    code, out, _ = run_cli(capsys, "eval", EXAMPLE, "--genus", "2")
    assert code == 0
    assert "x^4 + x^3 - 2*x^2 + x + 1" in out
    assert " 1  0  3 -2" in out


def test_eval_empty_word(capsys):
    code, payload, _ = run_json(capsys, "eval", "", "--genus", "2")
    assert code == 0
    assert payload["matrix"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_eval_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "eval", "z1", "--genus", "2")
    assert code == 2
    assert "offset 0" in err
    code, _, err = run_cli(capsys, "eval", "a1 c3", "--genus", "2")
    assert code == 2
    assert "offset 3" in err


def test_certify_example(capsys):
    code, payload, _ = run_json(capsys, "certify", EXAMPLE, "--genus", "2")
    assert code == 0
    assert payload["anosov"] is True
    assert payload["pa_status"] == "CertifiedPA"
    assert payload["hyperbolic"] == "yes"
    assert payload["decomposition"]["blocks"] == [
        {"p": [1, 0], "q": [0, 0], "r": [-2]},
        {"p": [0, 0], "q": [1, 1], "r": [0]},
    ]


def test_certify_non_family_word(capsys):
    code, payload, _ = run_json(capsys, "certify", "a1", "--genus", "2")
    assert code == 1
    assert payload["anosov"] is False
    assert payload["rejection"]["position"] == 0


def test_certify_base_word(capsys):
    code, payload, _ = run_json(capsys, "certify", "d1^-2 d2^-2", "--genus", "3")
    assert code == 0
    assert payload["anosov"] is True
    assert payload["pa_status"] == "Inconclusive"
    assert payload["hyperbolic"] == "unknown"


def test_plan_example(capsys):
    code, payload, _ = run_json(capsys, "plan", EXAMPLE, "--genus", "2")
    assert code == 0
    assert payload["round_trip_ok"] is True
    assert payload["plan"]["block_count"] == 2
    ops1 = payload["plan"]["blocks"][0]["ops"]
    assert {"curve": "c1", "phase": "0", "k": 2, "twist": 1, "l": -2} in ops1


def test_plan_base_word_empty(capsys):
    code, payload, _ = run_json(capsys, "plan", "d1^-2", "--genus", "2")
    assert code == 0
    assert payload["plan"]["blocks"] == [{"ops": []}]


def test_plan_arbitrary_b_exponent(capsys):
    code, payload, _ = run_json(capsys, "plan", "d1^-2 b2^-3", "--genus", "2")
    assert code == 0
    ops = payload["plan"]["blocks"][0]["ops"]
    assert ops == [{"curve": "b2", "phase": "3pi/2", "k": -3, "twist": 0, "l": -3}]


def test_plan_rejection(capsys):
    code, payload, _ = run_json(capsys, "plan", "b1", "--genus", "2")
    assert code == 1
    assert payload["accepted"] is False


def test_verify_claims(capsys):
    code, payload, _ = run_json(capsys, "verify-claims", "--genus", "2")
    assert code == 0
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "x_up_base[i=1]" in names


def test_verify_claims_genus_four(capsys):
    code, payload, _ = run_json(capsys, "verify-claims", "--genus", "4")
    assert code == 0
    assert payload["all_passed"] is True


def test_synthesize(capsys):
    code, payload, _ = run_json(capsys, "synthesize", "V1", "--genus", "2")
    assert code == 0
    assert payload["word"] == "A1 A1"
    assert payload["verified"] is True
    code, payload, _ = run_json(capsys, "synthesize", "X1,2^2", "--genus", "2")
    assert code == 0
    assert payload["length"] == 11
    code, _, err = run_cli(capsys, "synthesize", "Q1", "--genus", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "synthesize", "X1,2^3", "--genus", "2")
    assert code == 2


def test_membership_cli(capsys, tmp_path, closure_table, monkeypatch):
    cache = tmp_path / "closure.bin"
    monkeypatch.setenv("TWISTCERT_CACHE", str(cache))
    c1 = write_matrix(tmp_path, twist_gen("C", 1, 2), "c1.txt")
    code, payload, _ = run_json(capsys, "membership", c1, "--genus", "2")
    assert code == 1
    assert payload["verdict"] == "NotInGamma"
    v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
    code, payload, _ = run_json(capsys, "membership", v14, "--genus", "2")
    assert code == 0
    assert payload["verdict"] == "InGamma"


def test_membership_with_witness_cli(capsys, tmp_path):
    a1 = write_matrix(tmp_path, twist_gen("A", 1, 3), "a1.txt")
    code, payload, _ = run_json(
        capsys, "membership", a1, "--genus", "3", "--witness", "A1")
    assert code == 0
    assert payload["verdict"] == "InGamma"
    assert payload["witness"] == "A1"


def test_membership_unknown_exit_3(capsys, tmp_path):
    from twistcert.congruence import eval_gen_word, parse_gen_word
    mystery = eval_gen_word(parse_gen_word("A1 B2 A1 C1^2 B3^-1", 3))
    path = write_matrix(tmp_path, mystery, "mystery.txt")
    code, payload, _ = run_json(capsys, "membership", path, "--genus", "3")
    assert code == 3
    assert payload["verdict"] == "Unknown"


def test_membership_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 5 6\n")
    code, _, err = run_cli(capsys, "membership", str(bad), "--genus", "2")
    assert code == 2
    assert "cannot read matrix" in err
    code, _, err = run_cli(capsys, "membership", str(tmp_path / "missing.txt"),
                           "--genus", "2")
    assert code == 2


def test_index_with_cache(capsys, tmp_path):
    cache = tmp_path / "closure.bin"
    code, payload, _ = run_json(capsys, "index", "--cache", str(cache))
    assert code == 0
    assert payload["index"] == 20
    assert payload["image_size"] == 36864
    assert cache.exists()
    # second run reads the cache and emits identical bytes
    code2, out2, _ = run_cli(capsys, "index", "--cache", str(cache), "--format", "json")
    assert code2 == 0
    assert json.loads(out2) == payload


@pytest.mark.parametrize("caller", ["index", "membership", "env"])
@pytest.mark.parametrize("kind", ["directory", "under_a_file"])
def test_unusable_cache_path_is_an_input_error(capsys, tmp_path, monkeypatch, caller, kind):
    monkeypatch.delenv("TWISTCERT_CACHE", raising=False)
    path = str(tmp_path) if kind == "directory" else os.devnull + "/x"
    if caller == "index":
        argv = ["index", "--cache", path]
    elif caller == "membership":
        v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
        argv = ["membership", v14, "--genus", "2", "--cache", path]
    else:
        monkeypatch.setenv("TWISTCERT_CACHE", path)
        argv = ["index"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot use cache {path}: ")
    assert err.count("\n") == 1


def test_well_formed_cache_with_wrong_keys_is_not_read(capsys, tmp_path):
    # right header and count, increasing keys, none of them the image's: the
    # file is export-only, so no verdict reads it and it is not rewritten
    cache = tmp_path / "closure.bin"
    raw = struct.pack("<4sIIII36864I", b"TWCL", 1, 2, 4, 36864, *range(36864))
    cache.write_bytes(raw)
    code, payload, _ = run_json(capsys, "index", "--cache", str(cache))
    assert (code, payload["image_size"], payload["index"]) == (0, 36864, 20)
    c1 = write_matrix(tmp_path, twist_gen("C", 1, 2), "c1.txt")
    v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
    code, payload, _ = run_json(capsys, "membership", c1, "--genus", "2", "--cache", str(cache))
    assert (code, payload["verdict"]) == (1, "NotInGamma")
    code, payload, _ = run_json(capsys, "membership", v14, "--genus", "2", "--cache", str(cache))
    assert (code, payload["verdict"]) == (0, "InGamma")
    assert cache.read_bytes() == raw


def test_index_and_membership_never_run_the_bfs(capsys, tmp_path, monkeypatch):
    import twistcert.congruence as congruence

    monkeypatch.delenv("TWISTCERT_CACHE", raising=False)
    c1 = write_matrix(tmp_path, twist_gen("C", 1, 2), "c1.txt")
    v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")

    def outputs(name):
        cache = str(tmp_path / name)
        results = []
        for argv in (["index"], ["index", "--cache", cache], ["index", "--cache", cache],
                     ["membership", c1, "--genus", "2"],
                     ["membership", v14, "--genus", "2", "--cache", cache]):
            for fmt in ("human", "json"):
                results.append(run_cli(capsys, *argv, "--format", fmt))
        return results, (tmp_path / name).read_bytes()

    expected = outputs("plain.bin")

    def no_bfs(*args):
        raise AssertionError("the BFS row tables were built")

    monkeypatch.setattr(congruence, "_row_tables", no_bfs)
    assert outputs("patched.bin") == expected


def test_index_rebuilds_one_key_cache(capsys, tmp_path):
    # a valid header holding only key 0 (not even the identity)
    cache = tmp_path / "closure.bin"
    cache.write_bytes(struct.pack("<4sIIIII", b"TWCL", 1, 2, 4, 1, 0))
    assert len(cache.read_bytes()) == 24
    code, payload, _ = run_json(capsys, "index", "--cache", str(cache))
    assert code == 0
    assert payload["image_size"] == 36864
    assert payload["index"] == 20
    assert len(cache.read_bytes()) == 20 + 4 * 36864
    assert quotient_closure(2, str(cache)).size == 36864


def test_cli_imports_no_numpy():
    script = ("import sys, twistcert\n"
              "from twistcert.cli import main\n"
              "code = main(['index', '--format', 'json'])\n"
              "sys.exit('numpy imported' if 'numpy' in sys.modules else code)\n")
    env = {k: v for k, v in os.environ.items() if k != "TWISTCERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["index"] == 20


def test_index_requires_genus_two(capsys):
    code, _, err = run_cli(capsys, "index", "--genus", "3")
    assert code == 2


def test_density_cli_byte_stable(capsys):
    argv = ("density", "--genus", "2", "--seed", "5", "--samples", "10",
            "--blocks", "2", "--bound", "2", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["samples"] == 10
    assert 0 <= payload["certified"] <= 10


def test_genus_floor(capsys):
    code, _, err = run_cli(capsys, "eval", "a1", "--genus", "1")
    assert code == 2
    assert "genus" in err


def test_genus_above_factoring_bound_is_input_error(capsys):
    # boundary value only: genus 32 would run a slow certification
    code, _, err = run_cli(capsys, "certify", "a1 b1", "--genus", "33")
    assert code == 2
    assert "factoring bound 32" in err
    assert "Traceback" not in err
    code, _, err = run_cli(capsys, "density", "--genus", "33", "--seed", "1",
                           "--samples", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("eval", "a1"), ("plan", "a1"), ("verify-claims",), ("synthesize", "V1"),
    ("membership", "unread.txt"),
])
def test_genus_cap_covers_every_subcommand(capsys, argv):
    # boundary value only: the cap refuses before any matrix is allocated
    code, out, err = run_cli(capsys, *argv, "--genus", "33")
    assert code == 2
    assert out == ""
    assert "exceeds the factoring bound 32" in err
    assert "Traceback" not in err


def test_over_long_integer_tokens_are_input_errors(capsys):
    nines = "9" * 5000
    for subcommand in ("eval", "certify", "plan"):
        code, _, err = run_cli(capsys, subcommand, f"a1 a1^{nines}", "--genus", "2")
        assert (code, err.splitlines()[0][:18]) == (2, "error: at offset 3")
        code, _, err = run_cli(capsys, subcommand, f"a{nines}", "--genus", "2")
        assert (code, err.splitlines()[0][:18]) == (2, "error: at offset 0")


def test_synthesized_word_length_is_bounded(capsys, tmp_path):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "synthesize", "V1^65537", "--genus", "2")
    assert (code, out) == (2, "")
    assert "exceeds the bound 65536" in err
    path = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=2 ** 40), 3))
    code, out, err = run_cli(capsys, "membership", path, "--genus", "3")
    assert (code, out) == (2, "")
    assert "exceeds the bound 65536" in err
    assert time.perf_counter() - start < 1.0


def test_uncaught_exception_is_internal_error(capsys, monkeypatch):
    import twistcert.cli as cli

    def broken(word):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "eval_word", broken)
    code, out, err = run_cli(capsys, "eval", "a1", "--genus", "2")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_non_symplectic_matrix_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run_cli(capsys, "membership", str(path), "--genus", "2")
    assert code == 2
    assert "not symplectic" in err


def test_density_rejects_bad_params(capsys):
    code, _, err = run_cli(capsys, "density", "--genus", "2", "--seed", "1",
                           "--samples", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "density", "--genus", "2", "--seed", "1",
                           "--samples", "5", "--blocks", "0")
    assert code == 2


def test_synthesize_rejects_dangling_caret(capsys):
    code, _, err = run_cli(capsys, "synthesize", "V1^", "--genus", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "synthesize", "Z1,2^-4", "--genus", "2")
    assert code == 0


def test_repeated_main_calls_carry_no_state(capsys, tmp_path, monkeypatch):
    # flags and --cache do not leak into the next call, and the per-genus
    # closure generators shared across calls give the first call's answers
    monkeypatch.delenv("TWISTCERT_CACHE", raising=False)
    cache = tmp_path / "closure.bin"
    c1 = write_matrix(tmp_path, twist_gen("C", 1, 2), "c1.txt")
    a1 = write_matrix(tmp_path, twist_gen("A", 1, 3), "a1.txt")
    word = "a1^-2 b2^-1 c2^2 b1^-1 a1^-1 a2^-1"  # chi = (x^3 - 1)^2: strict adds a reason
    calls = [
        ("certify", word, "--genus", "3", "--strict", "--format", "json"),
        ("certify", word, "--genus", "3", "--format", "json"),
        ("membership", c1, "--genus", "2", "--cache", str(cache), "--format", "json"),
        ("membership", c1, "--genus", "2", "--format", "json"),
        ("membership", a1, "--genus", "3", "--format", "json"),
        ("certify", word, "--genus", "3", "--no-such-flag"),
        ("eval", "a1", "--genus", "2"),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def one_round():
        results = []
        for argv in calls:
            results.append(run(argv))
            if "--cache" in argv:
                assert cache.exists()
                cache.unlink()
        return results

    first = one_round()
    assert not cache.exists()  # --cache did not carry over into the next call
    assert [r[0] for r in first] == [1, 1, 1, 1, 0, 2, 0]
    assert first[0][1] != first[1][1]  # --strict did not carry over either
    assert json.loads(first[4][1])["verdict"] == "InGamma"
    assert one_round() == first
