import hashlib
import json
import math
import os
import random
import stat
import struct
import subprocess
import sys
import time

import pytest

from twistcert.certify import sample_t_word
from twistcert import congruence
from twistcert.cli import _parse_root_spec, main
from twistcert.congruence import (
    RootSpec,
    eval_gen_word,
    parse_gen_word,
    quotient_closure,
    root_matrix,
    synthesize_root,
    twist_gen,
    verify_identities,
)
from twistcert.matrices import IntMatrix, SpMatrix
from twistcert.polynomials import ONE, IntPoly, charpoly, factor_over_Z
from twistcert.words import MAX_WORD_LETTERS, format_word


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


def test_membership_cli(capsys, tmp_path, closure_table):
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


def test_empty_witness_is_the_empty_word(capsys, tmp_path):
    a1 = write_matrix(tmp_path, twist_gen("A", 1, 3), "a1.txt")
    code, out, err = run_cli(capsys, "membership", a1, "--genus", "3", "--witness", "")
    assert (code, out, err) == (2, "", "error: supplied witness does not evaluate to the matrix\n")
    for g in (2, 3):
        ident = write_matrix(tmp_path, SpMatrix.identity(g), f"ident{g}.txt")
        code, payload, _ = run_json(capsys, "membership", ident, "--genus", str(g),
                                    "--witness", "")
        assert code == 0
        assert (payload["detail"], payload["witness"]) == ("verified supplied witness", "")


def test_witness_length_bound(capsys, tmp_path):
    # MAX_WORD_LETTERS letters are accepted; one more is refused before the
    # word is built, although that word evaluates to the matrix
    from twistcert.congruence import MAX_WORD_LETTERS
    from twistcert.matrices import SpMatrix

    ident = write_matrix(tmp_path, SpMatrix.identity(3), "ident.txt")
    a1 = write_matrix(tmp_path, twist_gen("A", 1, 3), "a1.txt")
    longest = " ".join(["A1 A1^-1"] * (MAX_WORD_LETTERS // 2))
    too_long = longest + " A1"
    assert len(parse_gen_word(longest, 3)) == MAX_WORD_LETTERS
    with pytest.raises(ValueError, match="65537 letters exceeds the bound 65536"):
        parse_gen_word(too_long, 3)
    code, payload, _ = run_json(capsys, "membership", ident, "--genus", "3", "--witness", longest)
    assert (code, payload["verdict"], payload["witness"]) == (0, "InGamma", longest)
    code, out, err = run_cli(capsys, "membership", a1, "--genus", "3", "--witness", too_long)
    assert (code, out) == (2, "")
    assert err == "error: word of 65537 letters exceeds the bound 65536\n"


def test_membership_unknown_exit_3(capsys, tmp_path):
    from twistcert.congruence import eval_gen_word, parse_gen_word
    mystery = eval_gen_word(parse_gen_word("A1 B2 A1 C1^2 B3^-1", 3))
    path = write_matrix(tmp_path, mystery, "mystery.txt")
    code, payload, _ = run_json(capsys, "membership", path, "--genus", "3")
    assert code == 3
    assert payload["verdict"] == "Unknown"


def test_genus_three_roots_outside_the_layer_span_exit_1(capsys, tmp_path):
    # I mod 2 at t = 2, with a layer vector outside the span; at t = 4 each
    # has a synthesized word
    for kind, i, j in (("X", 1, 3), ("X", 3, 1), ("Y", 1, 3), ("Z", 1, 3)):
        for t, code, verdict in ((2, 1, "NotInGamma"), (4, 0, "InGamma")):
            path = write_matrix(tmp_path, root_matrix(RootSpec(kind, i, j, t), 3))
            got, payload, err = run_json(capsys, "membership", path, "--genus", "3")
            assert (got, payload["verdict"], err) == (code, verdict, ""), (kind, i, j, t)
            if t == 2:
                assert payload["detail"] == "reduction outside the quotient image"
                assert "witness" not in payload
            else:
                assert payload["detail"] == f"synthesized root word for {kind}{i},{j}^4"
                assert payload["witness"]


def test_membership_cache_at_genus_three(capsys, tmp_path):
    # the file is the genus-3 certificate that decides the verdict
    cache = tmp_path / "closure3.bin"
    x13 = write_matrix(tmp_path, root_matrix(RootSpec("X", 1, 3, 2), 3))
    code, payload, _ = run_json(capsys, "membership", x13, "--genus", "3", "--cache", str(cache))
    assert (code, payload["verdict"]) == (1, "NotInGamma")
    data = cache.read_bytes()
    assert len(data) == 173
    magic, version, genus, modulus, rank = struct.unpack_from("<4sIIII", data)
    assert (magic, version, genus, modulus, rank) == (b"TWCL", 2, 3, 4, 17)
    basis = tuple(int.from_bytes(data[20 + 9 * k:29 + 9 * k], "little") for k in range(rank))
    assert basis == congruence._closure_certificate(3).basis


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


@pytest.mark.parametrize("caller", ["index", "membership", "membership-genus-3"])
@pytest.mark.parametrize("kind", ["directory", "under_a_file"])
def test_unusable_cache_path_is_an_input_error(capsys, tmp_path, caller, kind):
    path = str(tmp_path) if kind == "directory" else os.devnull + "/x"
    if caller == "index":
        argv = ["index", "--cache", path]
    elif caller == "membership":
        v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
        argv = ["membership", v14, "--genus", "2", "--cache", path]
    else:
        x13 = write_matrix(tmp_path, root_matrix(RootSpec("X", 1, 3, 4), 3), "x13.txt")
        argv = ["membership", x13, "--genus", "3", "--cache", path]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot use cache {path}: ")
    assert err.count("\n") == 1


def test_cache_path_that_is_not_a_regular_file_is_left_alone(tmp_path):
    # a FIFO would block the read, and a rename would replace it: neither
    # happens, and the call exits 2
    fifo = tmp_path / "closure.fifo"
    os.mkfifo(fifo)
    script = "import sys\nfrom twistcert.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", script, "index", "--cache", str(fifo)],
                            env=env, capture_output=True, text=True, timeout=30)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: cannot use cache {fifo}: not a regular file\n"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_cache_with_wrong_basis_is_rewritten(capsys, tmp_path):
    # right header and rank, a basis that is not the image's (the identity
    # matrix's layer vector, ten times): no verdict reads the file, and each
    # call rewrites it
    cache = tmp_path / "closure.bin"
    good = tmp_path / "good.bin"
    quotient_closure(str(good))
    wrong = struct.pack("<4sIIII10I", b"TWCL", 2, 2, 4, 10, *[0x40100401] * 10)
    c1 = write_matrix(tmp_path, twist_gen("C", 1, 2), "c1.txt")
    v14 = write_matrix(tmp_path, root_matrix(RootSpec("V", 1, t=4), 2), "v14.txt")
    cache.write_bytes(wrong)
    code, payload, _ = run_json(capsys, "index", "--cache", str(cache))
    assert (code, payload["image_size"], payload["index"]) == (0, 36864, 20)
    assert cache.read_bytes() == good.read_bytes()
    cache.write_bytes(wrong)
    code, payload, _ = run_json(capsys, "membership", c1, "--genus", "2", "--cache", str(cache))
    assert (code, payload["verdict"]) == (1, "NotInGamma")
    assert cache.read_bytes() == good.read_bytes()
    cache.write_bytes(wrong)
    code, payload, _ = run_json(capsys, "membership", v14, "--genus", "2", "--cache", str(cache))
    assert (code, payload["verdict"]) == (0, "InGamma")
    assert cache.read_bytes() == good.read_bytes()


def test_index_rebuilds_one_key_cache(capsys, tmp_path):
    # a version-1 header holding only key 0 (not even the identity)
    cache = tmp_path / "closure.bin"
    cache.write_bytes(struct.pack("<4sIIIII", b"TWCL", 1, 2, 4, 1, 0))
    assert len(cache.read_bytes()) == 24
    code, payload, _ = run_json(capsys, "index", "--cache", str(cache))
    assert code == 0
    assert payload["image_size"] == 36864
    assert payload["index"] == 20
    assert len(cache.read_bytes()) == 20 + 4 * 10     # the header and 10 basis vectors
    assert quotient_closure(str(cache)).size == 36864


def test_cli_imports_no_numpy():
    script = ("import sys, twistcert\n"
              "from twistcert.cli import main\n"
              "code = main(['index', '--format', 'json'])\n"
              "sys.exit('numpy imported' if 'numpy' in sys.modules else code)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
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


def test_certify_at_the_genus_cap(capsys):
    # a seeded 3-block family word at g = 32: the degree-64 charpoly is
    # factored within a generous wall bound, and the factors reproduce it
    word = format_word(sample_t_word(32, 3, 3, random.Random(3203)))
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "certify", word, "--genus", "32")
    assert time.perf_counter() - start < 15.0
    assert code == 0  # a family word: Anosov certified
    chi = IntPoly(tuple(payload["charpoly"]))
    assert chi.degree == 64
    assert math.prod(factor_over_Z(chi), start=ONE) == chi
    # the full Faddeev-LeVerrier run on the reported matrix as a plain IntMatrix
    assert charpoly(IntMatrix(tuple(map(tuple, payload["matrix"])))) == chi


def test_verify_claims_at_the_genus_cap(capsys):
    # 2112 identities at g = 32 within a generous wall bound; the bytes are
    # those recorded before the checks moved to sparse deltas
    start = time.perf_counter()
    code = main(["verify-claims", "--genus", "32", "--format", "json"])
    out = capsys.readouterr().out
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert len(json.loads(out)["checks"]) == 2112
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3fefc58fb8fee9354e18e526c73fb5ed7809585897196876ed8414df9b04ca8a")


def test_genus_above_factoring_bound_is_input_error(capsys):
    # boundary value only: the cap refuses genus 33 before any work
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


def test_over_long_integer_tokens_are_input_errors(capsys, tmp_path):
    nines = "9" * 5000
    for subcommand in ("eval", "certify", "plan"):
        code, _, err = run_cli(capsys, subcommand, f"a1 a1^{nines}", "--genus", "2")
        assert (code, err.splitlines()[0][:18]) == (2, "error: at offset 3")
        code, _, err = run_cli(capsys, subcommand, f"a{nines}", "--genus", "2")
        assert (code, err.splitlines()[0][:18]) == (2, "error: at offset 0")
    # generator tokens and root specs name the token, not int()'s own line
    ones = "1" * 5000
    identity = write_matrix(tmp_path, SpMatrix.identity(3))
    for argv, message in (
        (("synthesize", f"V1^{nines}", "--genus", "2"), "a 5003-character root spec"),
        (("synthesize", f"X1,{ones}", "--genus", "2"), "a 5003-character root spec"),
        (("membership", identity, "--genus", "3", "--witness", f"A{ones}"),
         "a 5001-character generator token"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: integer too long in {message}\n")


def test_output_integers_past_the_str_limit_are_input_errors(capsys):
    # a1^t b1^t has the entry 1 - t^2: 4400 digits at t = 10^2200, more than
    # str() converts (4300 by default), and 4000 at t = 10^2000
    limit = sys.get_int_max_str_digits()
    refused = [f"error: an output integer has more than {limit} digits, "
               f"the integer string conversion limit"]
    huge, large = "1" + "0" * 2200, "1" + "0" * 2000
    for subcommand in ("eval", "certify"):
        for fmt in ("human", "json"):
            code, out, err = run_cli(capsys, subcommand, f"a1^{huge} b1^{huge}",
                                     "--genus", "2", "--format", fmt)
            assert (code, out, err.splitlines()) == (2, "", refused)
            code, out, err = run_cli(capsys, subcommand, f"a1^{large} b1^{large}",
                                     "--genus", "2", "--format", fmt)
            assert code in (0, 1) and out and err == ""
    # a family exponent merged from two tokens is printed whole by plan and
    # certify: 10^L - 1 still converts, 10^L does not
    nines = "9" * limit
    for subcommand in ("plan", "certify"):
        code, out, err = run_cli(capsys, subcommand, f"d1^-2 b1^{nines}", "--genus", "2")
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, subcommand, f"d1^-2 b1^{nines} b1", "--genus", "2")
        assert (code, out, err.splitlines()) == (2, "", refused)
    # with the limit off, every integer converts and nothing is refused
    sys.set_int_max_str_digits(0)
    try:
        code, payload, err = run_json(capsys, "eval", f"a1^{huge} b1^{huge}", "--genus", "2")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert payload["matrix"][2][2] == 1 - 10 ** 4400


def test_twist_word_letter_bound(capsys):
    # 65536 tokens are a word; the 65537th is refused at its offset
    longest = " ".join(["a1 a1^-1"] * (MAX_WORD_LETTERS // 2))
    for subcommand in ("eval", "certify", "plan"):
        code, _, err = run_cli(capsys, subcommand, longest + " b1", "--genus", "2")
        assert (code, err.splitlines()) == (
            2, [f"error: at offset {len(longest) + 1}: word exceeds the bound of 65536 letters"])


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


def test_matrix_file_reading_stops_at_the_limits(capsys, tmp_path):
    path = tmp_path / "m.txt"
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    max_line = 4 * (digits + 2) + 1     # 17209 at the default of 4300 digits
    for text, message in (
            ("1" * (max_line + 1), f"line 1 is longer than {max_line} characters"),
            ("\n1 0 0 0\n" + "0 1 0 0\n" * 3 + "\n1 0 0 0\n", "line 7 is a row past the 4th")):
        path.write_text(text)
        code, out, err = run_cli(capsys, "membership", str(path), "--genus", "2")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read matrix from {path}: {message}\n"
    # within the limits: blank lines are skipped and the longest entries are
    # read, so the verdict or error is the matrix's own
    path.write_text("\n\n1 0 0 0\n0 1 0 0\n\n0 0 1 0\n0 0 0 1\n\n")
    assert run_cli(capsys, "membership", str(path), "--genus", "2")[0] == 0
    path.write_text(" ".join(["-" + "9" * digits] * 4) + "\n" + "0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run_cli(capsys, "membership", str(path), "--genus", "2")
    assert code == 2 and "matrix is not symplectic" in err, err


def test_matrix_file_entries_are_ascii_integers(capsys, tmp_path):
    # int() alone would read 1_0 as 10, +1 as 1 and the Arabic-Indic digit
    # one as 1; each entry must be -?[0-9]+
    path = tmp_path / "m.txt"
    rest = "0 1 0 0\n0 0 1 0\n0 0 0 1\n"
    for first in ("1_0 0 0 0\n", "+1 0 0 0\n", "\u0661 0 0 0\n"):
        path.write_text(first + rest, encoding="utf-8")
        assert run_cli(capsys, "membership", str(path), "--genus", "2") == (
            2, "", f"error: cannot read matrix from {path}: line 1: an entry is not -?[0-9]+\n")
    path.write_text("1 0 0 0\n\n0 1 0 0\n0 0 1 0\n0 0 0 \uff11\n", encoding="utf-8")
    assert run_cli(capsys, "membership", str(path), "--genus", "2")[2].endswith(
        ": line 5: an entry is not -?[0-9]+\n")
    # tabs, form feeds and CRLF line ends separate as spaces do, and -0 is zero
    path.write_text(" 1\t-0 0 0\r\n0 1 0 0\f\n\v\n0 0 1 0\n0 0 0 1", encoding="utf-8")
    assert run_cli(capsys, "membership", str(path), "--genus", "2")[0] == 0
    # an entry past int()'s digit limit names its line and its length
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    for text, line, width in (("1" * (digits + 1) + " 0 0 0\n" + rest, 1, digits + 1),
                              ("1 0 0 0\n\n0 -" + "9" * (digits + 1) + " 0 0\n" + rest[8:],
                               3, digits + 2)):
        path.write_text(text)
        assert run_cli(capsys, "membership", str(path), "--genus", "2") == (
            2, "", f"error: cannot read matrix from {path}: line {line}: "
                   f"integer too long in a {width}-character entry\n")


def test_long_matrix_file_is_refused_in_bounded_memory(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_bytes(b"1 0 0 0\n" * 4_000_000)                  # 32 MB
    script = ("import resource, sys\n"
              "from twistcert.cli import main\n"
              "code = main(['membership', sys.argv[1], '--genus', '2'])\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                            capture_output=True, text=True, timeout=120)
    code, peak_kib = map(int, result.stdout.split())
    assert code == 2
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: "), result.stderr
    assert peak_kib < 100 * 1024


def test_family_verdicts_are_the_same_under_optimize():
    # the Anosov half of certify and plan keeps its checks without asserts
    script = ("import contextlib, io, json, sys\n"
              "from twistcert.cli import main\n"
              "runs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        code = main(argv)\n"
              "    runs.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(runs))\n")
    argv = json.dumps([[command, word, "--genus", "2", "--format", fmt]
                       for command in ("certify", "plan")
                       for word in (EXAMPLE, "d1^-2 c1^-1 a1")
                       for fmt in ("human", "json")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    results = [subprocess.run([sys.executable, *flags, "-c", script, argv], env=env,
                              capture_output=True, timeout=120)
               for flags in ((), ("-O",))]
    assert [r.returncode for r in results] == [0, 0], results[1].stderr
    assert results[0].stdout == results[1].stdout
    runs = json.loads(results[0].stdout)
    assert [code for code, _, _ in runs] == [0, 0, 1, 1, 0, 0, 1, 1]
    assert "c1 exponent must be -2" in runs[2][1] + runs[2][2]


def test_uncaught_exception_is_internal_error(capsys, monkeypatch):
    import twistcert.cli as cli

    def broken(word):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "eval_word", broken)
    code, out, err = run_cli(capsys, "eval", "a1", "--genus", "2")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("name, argv", [("certify_report", ("certify", "a1")),
                                        ("verify_identities", ("verify-claims",))])
def test_library_value_error_is_internal_error(capsys, monkeypatch, name, argv):
    # only the parse steps of a subcommand turn a ValueError into exit 2
    import twistcert.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, name, broken)
    code, out, err = run_cli(capsys, *argv, "--genus", "2")
    assert (code, out, err) == (4, "", "internal error: ValueError: boom\n")


def test_matrix_file_of_another_genus_is_input_error(capsys, tmp_path):
    # the reader checks the dimension against --genus after the rows parse,
    # so a ragged or non-square file keeps its own message
    path = write_matrix(tmp_path, SpMatrix.identity(2), "ident4.txt")
    assert run_cli(capsys, "membership", path, "--genus", "3") == (
        2, "", f"error: cannot read matrix from {path}: dimension 4 does not match genus 3\n")
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 0 0 0\n0 1 0\n0 0 1 0\n0 0 0 1\n")
    assert run_cli(capsys, "membership", str(ragged), "--genus", "3") == (
        2, "", f"error: cannot read matrix from {ragged}: matrix is not square\n")


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


@pytest.mark.parametrize("argv, message", [
    # read as A1, A1, C1^-2, A1, V1^2, X1,2^4, V1^2 and V1^2 before tokens
    # and specs followed the twist-token rule
    (("a1", "--witness", "A1^"), "malformed generator token 'A1^'"),
    (("a1", "--witness", "A1^+1"), "malformed generator token 'A1^+1'"),
    (("c1", "--witness", "C1^-0_2"), "malformed generator token 'C1^-0_2'"),
    (("a1", "--witness", "A\u0661"), "malformed generator token 'A\u0661'"),
    (("synthesize", "V1^+2"), "malformed root spec 'V1^+2'"),
    (("synthesize", "X1,2^0_4"), "malformed root spec 'X1,2^0_4'"),
    (("synthesize", "V\u0661"), "malformed root spec 'V\u0661'"),
    (("synthesize", "V1^ 2"), "malformed root spec 'V1^ 2'"),
    # exit 2 before as well, with int()'s "invalid literal" message
    (("a1", "--witness", "A1^x"), "malformed generator token 'A1^x'"),
    (("a1", "--witness", "A1^^2"), "malformed generator token 'A1^^2'"),
    (("synthesize", "V1^x"), "malformed root spec 'V1^x'"),
])
def test_tokens_outside_the_twist_token_rule_are_input_errors(capsys, tmp_path, argv, message):
    files = {"a1": twist_gen("A", 1, 3), "c1": eval_gen_word(parse_gen_word("C1^-2", 3))}
    if argv[0] == "synthesize":
        argv = (*argv, "--genus", "2")
    else:
        argv = ("membership", write_matrix(tmp_path, files[argv[0]]), "--genus", "3", *argv[1:])
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def partition_gen_letters(text):
    """Reference reader for generator words, by partition and isdigit."""
    letters = []
    for token in text.split():
        body, _, exp_text = token.partition("^")
        assert len(body) >= 2 and body[0] in "ABC" and body[1:].isdigit()
        letters.append((body[0], int(body[1:]), int(exp_text) if exp_text else 1))
    return tuple(letters)


def partition_root_spec(text, genus):
    """Reference reader for root specs, by partition and isdigit."""
    body, _, exp_text = text.partition("^")
    indices = body[1:].split(",")
    assert body[0] in "VWXYZ" and all(i.isdigit() for i in indices)
    return RootSpec(body[0], *map(int, indices), t=int(exp_text) if exp_text else 2 ** (genus - 1))


def test_specs_and_generator_words_in_use_read_as_before(monkeypatch):
    # every spec the golden corpus and the benchmark's synthesize ops pass
    # (each root at g = 2..5, with and without ^t), the golden corpus
    # witnesses, and every formula word that synthesis and verify-claims
    # at g = 2..8 build
    specs = [("V1", 2), ("X1,2", 2), ("X1,2^3", 2)]
    for g in range(2, 6):
        t = 2 ** (g - 1)
        roots = [f"{k}{i}" for k in "VW" for i in range(1, g + 1)]
        roots += [f"X{i},{j}" for i in range(1, g + 1) for j in range(1, g + 1) if i != j]
        roots += [f"{k}{i},{j}" for k in "YZ" for i in range(1, g + 1) for j in range(i + 1, g + 1)]
        specs += [(text, g) for root in roots for text in (root, f"{root}^{t}", f"{root}^-{t}")]
    for text, g in specs:
        assert _parse_root_spec(text, g) == partition_root_spec(text, g), text
    for text in ("A1", "B1", "A1 B2 A1 C1^2 B3^-1", "A1 A1^-1 C2^-2"):
        assert congruence._gen_letters(text) == partition_gen_letters(text)
    read = congruence._gen_letters
    formulas = []

    def compared(text):
        formulas.append(text)
        letters = read(text)
        assert letters == partition_gen_letters(text), text
        return letters

    monkeypatch.setattr(congruence, "_gen_letters", compared)
    for text, g in specs[3:]:
        synthesize_root(_parse_root_spec(text, g), g)
    for g in range(2, 9):
        assert verify_identities(g).all_passed
    assert formulas


def test_repeated_main_calls_carry_no_state(capsys, tmp_path):
    # flags and --cache do not leak into the next call, and the per-genus
    # closure generators shared across calls give the first call's answers
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


# Golden corpus: every subcommand, its verdicts and its error paths, pinned
# as sha256 of (exit code, stdout, stderr) with the temp directory replaced
# by "TMP", once per output format.
GOLDEN_ARGV = {
    "eval": ("eval", EXAMPLE, "--genus", "2"),
    "eval-empty": ("eval", "", "--genus", "2"),
    "eval-bad-word": ("eval", "a1 c3", "--genus", "2"),
    "eval-long-token": ("eval", "a1 a1^" + "9" * 5000, "--genus", "2"),
    "eval-genus-1": ("eval", "a1", "--genus", "1"),
    "eval-genus-40": ("eval", "a1", "--genus", "40"),
    "certify": ("certify", EXAMPLE, "--genus", "2"),
    "certify-negative": ("certify", "a1", "--genus", "2"),
    "certify-base": ("certify", "d1^-2 d2^-2", "--genus", "3"),
    "certify-strict": ("certify", "a1^-2 b2^-1 c2^2 b1^-1 a1^-1 a2^-1", "--genus", "3",
                       "--strict"),
    "certify-bad-word": ("certify", "z1", "--genus", "2"),
    "certify-genus-40": ("certify", "a1 b1", "--genus", "40"),
    "plan": ("plan", EXAMPLE, "--genus", "2"),
    "plan-b-power": ("plan", "d1^-2 b2^-3", "--genus", "2"),
    "plan-rejection": ("plan", "b1", "--genus", "2"),
    "plan-bad-word": ("plan", "a1^", "--genus", "2"),
    "verify-claims": ("verify-claims", "--genus", "3"),
    "verify-claims-genus-1": ("verify-claims", "--genus", "1"),
    "synthesize": ("synthesize", "X1,2", "--genus", "2"),
    "synthesize-v": ("synthesize", "V1", "--genus", "2"),
    "synthesize-bad-spec": ("synthesize", "Q1", "--genus", "2"),
    "synthesize-bad-exponent": ("synthesize", "X1,2^3", "--genus", "2"),
    "synthesize-dangling-caret": ("synthesize", "V1^", "--genus", "2"),
    "synthesize-too-long": ("synthesize", "V1^65537", "--genus", "2"),
    "membership-out": ("membership", "{c1}", "--genus", "2"),
    "membership-in": ("membership", "{v14}", "--genus", "2"),
    "membership-cache": ("membership", "{v14}", "--genus", "2", "--cache", "{tmp}/c.bin"),
    "membership-witness": ("membership", "{a1}", "--genus", "3", "--witness", "A1"),
    "membership-wrong-witness": ("membership", "{a1}", "--genus", "3", "--witness", "B1"),
    "membership-bad-witness": ("membership", "{a1}", "--genus", "3", "--witness", "A1 Q2"),
    "membership-root": ("membership", "{x13}", "--genus", "3"),
    "membership-unknown": ("membership", "{mystery}", "--genus", "3"),
    "membership-too-long": ("membership", "{huge}", "--genus", "3"),
    "membership-bad-matrix": ("membership", "{ragged}", "--genus", "2"),
    "membership-not-symplectic": ("membership", "{shear}", "--genus", "2"),
    "membership-missing-file": ("membership", "{tmp}/missing.txt", "--genus", "2"),
    "membership-cache-dir": ("membership", "{v14}", "--genus", "2", "--cache", "{tmp}"),
    "index": ("index",),
    "index-cache": ("index", "--cache", "{tmp}/c.bin"),
    "index-cache-dir": ("index", "--cache", "{tmp}"),
    "index-cache-under-file": ("index", "--cache", os.devnull + "/x"),
    "index-genus-3": ("index", "--genus", "3"),
    "density": ("density", "--genus", "2", "--seed", "5", "--samples", "10"),
    "density-no-samples": ("density", "--genus", "2", "--seed", "1", "--samples", "0"),
    "density-no-blocks": ("density", "--genus", "2", "--seed", "1", "--samples", "5",
                          "--blocks", "0"),
    "density-genus-40": ("density", "--genus", "40", "--seed", "1", "--samples", "1"),
}

GOLDEN_SHA256 = {  # name -> (human, json)
    "eval": ("ccc8a3b6a6f2da3c3baf9b6fe49b5db211c5bf5b339192a52c4a9a67d5811f1b",
             "e9eef27e66f9b0358e851b07bf56c2cbb191fc7d21406d14f9e86d41534269e7"),
    "eval-empty": ("982763d5333a4f076f1b65a6ab4127b341aa9f25549ee01db138fccfc0bf2b9f",
                   "ce79c7047a7657f97ebcd211c31c2fb1d8a06d8eb3f4c6b58b1a508ac3147244"),
    "eval-bad-word": ("c27599412e8f3534217dd36a30ffd6586032977cab0dc3f6607d1160863afff8",
                      "c27599412e8f3534217dd36a30ffd6586032977cab0dc3f6607d1160863afff8"),
    "eval-long-token": ("2f32dc84f489660fc18ba56325994fac2d4c611350f2c5c47d699a49b1ecf321",
                        "2f32dc84f489660fc18ba56325994fac2d4c611350f2c5c47d699a49b1ecf321"),
    "eval-genus-1": ("bc9de16259ae954997c5a5c6afaaca5da47369390a085ff07f2c0e634674d054",
                     "bc9de16259ae954997c5a5c6afaaca5da47369390a085ff07f2c0e634674d054"),
    "eval-genus-40": ("c0bdde8697eaf933d14f78962fd16f5a0a8695cc84e3c02eab92e2e3118eefae",
                      "c0bdde8697eaf933d14f78962fd16f5a0a8695cc84e3c02eab92e2e3118eefae"),
    "certify": ("33548d454ee7340462f5bd239bda98b997aed5166205a08a4a026677c9674ac1",
                "7f0345dfd0c2963734dd04b24cb1ce0f0f1021ca52d081c51e3939b80acf2a99"),
    "certify-negative": ("24b399fd79e937a221972dd608365b2bcd6c96d711723ca19881731384e69e3e",
                         "375c0cbf22d7a96c06b0612ce6b084e28cb3906df0a0936edd9a672d3d560427"),
    "certify-base": ("08a93af6c0c5e7c4bfe891d084e4ab63f1b9ed81ea06da845e7d22a81d20b203",
                     "936e1674f06561cd0efacb47c61c92e2206c373e01199fe579df59ef4e545f76"),
    "certify-strict": ("707d4b5435826e61c1e517e2414de3ea402cd5910a6563cca3a6fd24114e08b0",
                       "89b7d0502f1d99807d55e38df732108d4e7a9265f4866d9481e52730c09bca36"),
    "certify-bad-word": ("3d21170b45b1997c9ae23d5554ebb0f14b6d70e4b66ef6f14b72907eed516355",
                         "3d21170b45b1997c9ae23d5554ebb0f14b6d70e4b66ef6f14b72907eed516355"),
    "certify-genus-40": ("c0bdde8697eaf933d14f78962fd16f5a0a8695cc84e3c02eab92e2e3118eefae",
                         "c0bdde8697eaf933d14f78962fd16f5a0a8695cc84e3c02eab92e2e3118eefae"),
    "plan": ("62f14f6fe168a819d47c05859b823898c431b3f2c2f07d541da8ef3933ecadfb",
             "adcf082ae4c43b74d75d4394e9465f86636f10eb606e2824be29249d24ae59bc"),
    "plan-b-power": ("abdcb5ed7319bbb00a010b999ba76e70b3c9e8a24cfe699a9b0291aec5509fb5",
                     "fb221cce770ee4792c71817ce774149235cdd328b0c82071b92fc8af3e292f3e"),
    "plan-rejection": ("0a3dd7cda8310dad25b5ba1c4042cb44f79797d6b01bcaa758e5af86ddfca3f2",
                       "2cc0841c82ac35be3a361d6b779db97328af8e394254225bd8fe163f52238696"),
    "plan-bad-word": ("9263b845721cf8fa8f6f379af2a3618dd6b282f7b280a86db001e9fc38b925ac",
                      "9263b845721cf8fa8f6f379af2a3618dd6b282f7b280a86db001e9fc38b925ac"),
    "verify-claims": ("0fb644cae6571a18bc407f3be9e7df149a01e61445d4234801e162c35d9d8b32",
                      "3044a9ed6a1767fd7a5e349f160e07dbcc7a1fe9327d03b94ee927f10c0270b9"),
    "verify-claims-genus-1": ("bc9de16259ae954997c5a5c6afaaca5da47369390a085ff07f2c0e634674d054",
                              "bc9de16259ae954997c5a5c6afaaca5da47369390a085ff07f2c0e634674d054"),
    "synthesize": ("9b654cf6c42075f636c110f0ba2b6fe0370a6687a659ab381811813e0b880aca",
                   "0419970c9e3c7bf8932b40a8840c5887803b0d3e4ad619ddda539229b5969cc4"),
    "synthesize-v": ("f93ffeb455f4be6b11d015460c9bdc5486c1d29d82af701790dc1382df6f7ddc",
                     "58124bbe4f6e508514fc481fda76e442f2b49199800997085eceb47c2b6ffdeb"),
    "synthesize-bad-spec": ("241284a8573d5bc1c681fed35957c810c5fc9fba0d3ab9f0981b14fbaa7a73e5",
                            "241284a8573d5bc1c681fed35957c810c5fc9fba0d3ab9f0981b14fbaa7a73e5"),
    "synthesize-bad-exponent": ("f0b287929d85613cdc831957c1bce0b082c98de133e9b7e2b3fd74eedc7565c2",
                                "f0b287929d85613cdc831957c1bce0b082c98de133e9b7e2b3fd74eedc7565c2"),
    "synthesize-dangling-caret": ("a3f631c25bed56ea4ba3c921f96377d771411a499172ced55b9958cc69922064",
                                  "a3f631c25bed56ea4ba3c921f96377d771411a499172ced55b9958cc69922064"),
    "synthesize-too-long": ("601430fa292ad59f5bf9c26dae1a0c851137d6bdc823e8da392ca917b07c17c0",
                            "601430fa292ad59f5bf9c26dae1a0c851137d6bdc823e8da392ca917b07c17c0"),
    "membership-out": ("b76ae4f1cc330502abb77cdfdd02dad550c8d2130ef5d66d144ac2dbf44a4813",
                       "37ae5a3017ee8b56d97473a23d63eee51a3f0b34afff2fca62142cb9f213c24b"),
    "membership-in": ("a42a76a6b232a61682f81ed354e0cc553e29c5cc51185a1cc0e53b56ed22c041",
                      "7e56f4acaddfcc0330bd773dd321cc9f160c8093122f0ef66a5ea344ccb0f7d1"),
    "membership-cache": ("a42a76a6b232a61682f81ed354e0cc553e29c5cc51185a1cc0e53b56ed22c041",
                         "7e56f4acaddfcc0330bd773dd321cc9f160c8093122f0ef66a5ea344ccb0f7d1"),
    "membership-witness": ("46a3647b5f69a6e2ef128e05f8fe9486ff04afb8fb6fd14924e1d856cd55722d",
                           "2894821b4b1a43467da80f83dbb3b114fced1bd784212baf36d35888cdbaad6b"),
    "membership-wrong-witness": ("8a6db7ab51a0d9b428529f252366f387729452931f80649de85332c1e4c34211",
                                 "8a6db7ab51a0d9b428529f252366f387729452931f80649de85332c1e4c34211"),
    "membership-bad-witness": ("25e4364a0b28fd7f995282ff17c470788b2a9dc994d12bc743fc158b8f55fdb7",
                               "25e4364a0b28fd7f995282ff17c470788b2a9dc994d12bc743fc158b8f55fdb7"),
    "membership-root": ("726f0f70b1c6d1ef0c1b69f8a6349de07148864643bb18ef48a1b9d84cc1c72f",
                        "01af6a3327bf580b14d466004656bb6ba8275dc76ab56bedb71915272f8aac5b"),
    "membership-unknown": ("aaf792d5435c3d06dd81a3772160fb06d8a7a252a0dfbaf6d5f6bbc4cf0e8c9b",
                           "6ef1732b453de3764a5116338fca9929ef0adfa3266f8af7fba753e993d2b35c"),
    "membership-too-long": ("ea61422d6b5adc3c8a244b8a4e509df86b6a5a693d3a4cc02a566933f7cfa08f",
                            "ea61422d6b5adc3c8a244b8a4e509df86b6a5a693d3a4cc02a566933f7cfa08f"),
    "membership-bad-matrix": ("a681aa43f7805e96827c0d211fc45d50a80f14685fb20f3b4e279fe1ebacec81",
                              "a681aa43f7805e96827c0d211fc45d50a80f14685fb20f3b4e279fe1ebacec81"),
    "membership-not-symplectic": ("833a062d897d540af302940be3aec69a64a05e34c78ba93a24fe2af9c7e966f8",
                                  "833a062d897d540af302940be3aec69a64a05e34c78ba93a24fe2af9c7e966f8"),
    "membership-missing-file": ("31915b5a856c6af49e509bad213de3455491ae69d64037b86a8a3b0d90b2d6dc",
                                "31915b5a856c6af49e509bad213de3455491ae69d64037b86a8a3b0d90b2d6dc"),
    "membership-cache-dir": ("7018e43a246915d9721564cf7da259dcdb6a78989378f6cf374c4ac53c89d024",
                             "7018e43a246915d9721564cf7da259dcdb6a78989378f6cf374c4ac53c89d024"),
    "index": ("05799d783511d78d0a74929e4e12b8b33a8361691f0e9d6bd9c7233d8c1176a6",
              "b2efba8fd68a4081d210280220c3a4331d73bec387da9c05febc5129c0a760f9"),
    "index-cache": ("05799d783511d78d0a74929e4e12b8b33a8361691f0e9d6bd9c7233d8c1176a6",
                    "b2efba8fd68a4081d210280220c3a4331d73bec387da9c05febc5129c0a760f9"),
    "index-cache-dir": ("7018e43a246915d9721564cf7da259dcdb6a78989378f6cf374c4ac53c89d024",
                        "7018e43a246915d9721564cf7da259dcdb6a78989378f6cf374c4ac53c89d024"),
    "index-cache-under-file": ("ad5f053cee24091a3b4e6e6c324ebb5b9a2f0eb4db71e708b3dc6c254e8571b4",
                               "ad5f053cee24091a3b4e6e6c324ebb5b9a2f0eb4db71e708b3dc6c254e8571b4"),
    "index-genus-3": ("f8564f9a8d06cb01ad465ac89206dc812d2d19b8a1dc6a2b6c6b34895c4729bf",
                      "f8564f9a8d06cb01ad465ac89206dc812d2d19b8a1dc6a2b6c6b34895c4729bf"),
    "density": ("bbf493cbe6213d290aeb87094414c09ef00dd6f3bb9fc271b6d5a60579d616d4",
                "9f3d899f056d08f8f68c67170da8c1268d4beb47ea6f0b391ea2f522d889550d"),
    "density-no-samples": ("0cd5169c5bf9874ae8c5a2c8fc8c1a4a678443c00434f866bc42aac29bd61407",
                           "0cd5169c5bf9874ae8c5a2c8fc8c1a4a678443c00434f866bc42aac29bd61407"),
    "density-no-blocks": ("0cd5169c5bf9874ae8c5a2c8fc8c1a4a678443c00434f866bc42aac29bd61407",
                          "0cd5169c5bf9874ae8c5a2c8fc8c1a4a678443c00434f866bc42aac29bd61407"),
    "density-genus-40": ("c0bdde8697eaf933d14f78962fd16f5a0a8695cc84e3c02eab92e2e3118eefae",
                         "c0bdde8697eaf933d14f78962fd16f5a0a8695cc84e3c02eab92e2e3118eefae"),
}


def golden_digest(capsys, tmp_path, argv, fmt):
    files = {
        "c1": twist_gen("C", 1, 2),
        "v14": root_matrix(RootSpec("V", 1, t=4), 2),
        "a1": twist_gen("A", 1, 3),
        "x13": root_matrix(RootSpec("X", 1, 3, t=4), 3),
        "mystery": eval_gen_word(parse_gen_word("A1 B2 A1 C1^2 B3^-1", 3)),
        "huge": root_matrix(RootSpec("V", 1, t=2 ** 40), 3),
    }
    paths = {name: write_matrix(tmp_path, m, f"{name}.txt") for name, m in files.items()}
    for name, text in (("ragged", "1 2 3\n4 5 6\n"),
                       ("shear", "1 1 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")):
        (tmp_path / f"{name}.txt").write_text(text)
        paths[name] = str(tmp_path / f"{name}.txt")
    paths["tmp"] = str(tmp_path)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv), "--format", fmt)
    record = json.dumps([code, out, err]).replace(str(tmp_path), "TMP")
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_corpus(capsys, tmp_path, name, fmt):
    digest = golden_digest(capsys, tmp_path, GOLDEN_ARGV[name], fmt)
    assert digest == GOLDEN_SHA256[name][fmt == "json"]
