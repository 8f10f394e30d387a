"""End-to-end checks for the grsdual command line.

Everything runs in-process through main(argv) so exit codes and output
can be asserted without spawning subprocesses.  The [4,2] code over
GF(13) from the even-length family is the workhorse fixture: small
enough to read by eye, and its serialized form is frozen below.
"""

import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grsdual.cli as cli
import grsdual.cosets
import grsdual.field
import grsdual.grs
import grsdual.linalg
import grsdual.selftest
from grsdual import make_field
from grsdual.cli import main
from grsdual.errors import SchemaError, TableLimitExceeded
from grsdual.grs import code_from_obj
from grsdual.search import catalog
from grsdual.subspace import th1_code, th3_code, th4_code

T2_ARGS = ["construct", "--theorem", "th2",
           "--p", "13", "--m", "1", "--e", "0", "--t", "3"]

T2_JSON = ('{"a":[0,1,2,5],"extended":false,'
           '"field":{"m":1,"modulus":[0,1],"p":13,"theta":2},"k":2,'
           '"provenance":{"e":0,"m":1,"p":13,"t":3,"theorem":"th2"},'
           '"v":[1,6,3,4]}')


def run(capsys, argv, **kwargs):
    rc = main(argv, **kwargs)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_stdout(capsys):
    rc, out, err = run(capsys, T2_ARGS)
    assert rc == 0
    assert out == T2_JSON + "\n"
    assert err == ""


def test_construct_deterministic(capsys):
    _, first, _ = run(capsys, T2_ARGS)
    _, second, _ = run(capsys, T2_ARGS)
    assert hashlib.sha256(first.encode()).digest() == \
        hashlib.sha256(second.encode()).digest()


def test_construct_out_and_matrix_out(tmp_path, capsys):
    code = tmp_path / "t2.json"
    mat = tmp_path / "t2.mat"
    rc, out, _ = run(capsys, T2_ARGS + ["--out", str(code),
                                        "--matrix-out", str(mat)])
    assert rc == 0
    assert out == ""
    assert code.read_text() == T2_JSON + "\n"
    assert mat.read_text() == "1 6 3 4\n0 6 4 8\n"


def test_construct_verify_roundtrip(tmp_path, capsys):
    code = tmp_path / "t2.json"
    run(capsys, T2_ARGS + ["--out", str(code)])
    rc, out, err = run(capsys, ["verify", "--in", str(code)])
    assert rc == 0
    assert err == ""
    assert out == ('{"d":3,"field":"GF(13)","k":2,"length":4,"mds":true,'
                   '"mode":"exhaustive","self_dual":true}\n')


def test_verify_forms_the_generator_matrix_once(tmp_path, capsys,
                                                monkeypatch):
    """G is formed whole at most once: never for --mds none or the grs
    rung, which forms no row, and once for the modes that read all of
    it, after self-duality is proved from the Gram rows of the code's
    GrsRows in every mode; rank k rests on the EvalSet checks.  No mode
    reads the GRS shape off G."""
    calls, rows = [], []
    original = grsdual.grs.generator_matrix
    formed = grsdual.grs.GrsRows.__getitem__

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def counted(self, idx):
        rows.append(idx)
        return formed(self, idx)

    def refuse(*args):
        raise AssertionError("read the GRS shape off G")

    code = tmp_path / "t2.json"
    run(capsys, T2_ARGS + ["--out", str(code)])
    monkeypatch.setattr(grsdual.grs, "generator_matrix", counting)
    monkeypatch.setattr(grsdual.grs.GrsRows, "__getitem__", counted)
    monkeypatch.setattr(grsdual.grs, "_grs_eval_set", refuse)
    for mode, times in (("none", 0), ("auto", 1), ("exhaustive", 1),
                        ("minors", 1), ("sampled", 1)):
        calls.clear()
        rows.clear()
        rc, out, _ = run(capsys, ["verify", "--in", str(code), "--mds", mode])
        assert rc == 0 and json.loads(out)["self_dual"] is True
        assert len(calls) == times, mode
        # the Gram's held rows with its first block of streamed rows,
        # then G in one block where it is formed
        assert len(rows) == 1 + times, (mode, rows)
        assert [isinstance(i, slice) for i in rows[1:]] == [True] * times
    calls.clear()
    rows.clear()
    rc, out, _ = run(capsys, ["verify", "--in", str(code), "--enum-limit",
                              "1"])
    assert rc == 0 and json.loads(out)["mode"] == "grs" and not calls
    assert [np.ndim(i) for i in rows] == [1]  # the Gram's rows only


def test_verify_mds_modes(tmp_path, capsys):
    code = tmp_path / "t2.json"
    run(capsys, T2_ARGS + ["--out", str(code)])
    rc, out, _ = run(capsys, ["verify", "--in", str(code), "--mds", "none"])
    assert rc == 0
    report = json.loads(out)
    assert report["mds"] == "skipped"
    assert "mode" not in report
    for mode in ("minors", "sampled"):
        rc, out, _ = run(capsys, ["verify", "--in", str(code), "--mds", mode])
        assert rc == 0
        report = json.loads(out)
        assert report["mds"] is True
        assert report["mode"] == mode


def test_verify_sampled_is_bounded_by_the_minor_limit(tmp_path, capsys,
                                                     monkeypatch):
    """sampled runs minors, so C(n,k) past --minor-limit exits 6 before
    any minor is tested: the th4 [170,85] file at once."""
    big = tmp_path / "th4.json"
    big.write_text(th4_code(13, 3, 1, 12).to_json())
    small = tmp_path / "th1.json"
    small.write_text(th1_code(41, 1, 0, 4).to_json())
    monkeypatch.setattr(grsdual.grs.linalg, "minors_nonzero", None)
    start = time.perf_counter()
    rc, out, err = run(capsys, ["verify", "--in", str(big), "--mds",
                                "sampled"])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (6, "")
    assert err == (f"enumeration too large: C(170,85) = "
                   f"{math.comb(170, 85)} exceeds 1000000\n")
    rc, out, err = run(capsys, ["verify", "--in", str(small), "--mds",
                                "sampled", "--minor-limit", "10"])
    assert (rc, out) == (6, "")
    assert err == "enumeration too large: C(8,4) = 70 exceeds 10\n"
    monkeypatch.undo()
    rc, out, _ = run(capsys, ["verify", "--in", str(small), "--mds",
                              "sampled"])
    assert rc == 0
    assert json.loads(out)["mds"] is True


def test_verify_sampled_runs_the_minors_kernel_once(tmp_path, capsys,
                                                   monkeypatch):
    """sampled makes one minors_nonzero call, with G, on an [8,4] file
    and on a [14,7] one, C(14,7) = 3,432 subsets, and reports under its
    own name."""
    codes = [th1_code(41, 1, 0, 4).to_obj(),
             next(e.certificate for e in catalog(13, 14) if e.n == 14)]
    seen = []
    minors_nonzero = grsdual.linalg.minors_nonzero

    def spy(field, mat, block):
        seen.append(np.array(mat))
        return minors_nonzero(field, mat, block)

    monkeypatch.setattr(grsdual.grs.linalg, "minors_nonzero", spy)
    path = tmp_path / "code.json"
    for obj in codes:
        path.write_text(json.dumps(obj))
        seen.clear()
        rc, out, _ = run(capsys, ["verify", "--in", str(path), "--mds",
                                  "sampled"])
        assert (rc, json.loads(out)["mode"]) == (0, "sampled")
        code = code_from_obj(obj)
        assert len(seen) == 1
        assert np.array_equal(seen[0], code.generator_matrix().data)


def test_verify_bytes_over_the_catalog_certificates(tmp_path, capsys):
    """verify in all five --mds modes over the 45 catalog certificates
    of GF(13), 25, 27, 49, 81, 121 and 169 up to length 16: stdout,
    stderr and exit codes hash to the digest the draw-based sampled
    mode gave, so testing each k-subset once moved no byte."""
    digest = hashlib.sha256()
    certs = [e.certificate for q in (13, 25, 27, 49, 81, 121, 169)
             for e in catalog(q, 16) if e.certificate]
    assert len(certs) == 45
    for i, cert in enumerate(certs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cert))
        for mode in ("auto", "exhaustive", "minors", "sampled", "none"):
            rc, out, err = run(capsys, ["verify", "--in", str(path),
                                        "--mds", mode])
            digest.update(repr((i, mode, rc, out, err)).encode())
    assert digest.hexdigest() == ("10e1b33600a5b5e08c5e826866e9ef54"
                                  "7a54ab411ba7cfe0bcbc0a757d43fddf")


@functools.cache
def catalog_certificates():
    """The 45 catalog certificates of GF(13), 25, 27, 49, 81, 121 and
    169 up to length 16."""
    return [e.certificate for q in (13, 25, 27, 49, 81, 121, 169)
            for e in catalog(q, 16) if e.certificate]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 44),
       st.sampled_from(("auto", "exhaustive", "minors", "sampled", "none")),
       st.integers(1, 10 ** 5), st.integers(1, 2 * 10 ** 4))
def test_no_file_that_loads_exits_5(tmp_path_factory, index, mode,
                                    enum_limit, minor_limit):
    """Every file that loads is a GRS code, hence MDS: verify exits 0,
    or 6 with nothing on stdout when a limit refuses the work, in every
    --mds mode and under any limits."""
    code = tmp_path_factory.mktemp("cert") / "code.json"
    code.write_text(json.dumps(catalog_certificates()[index]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify", "--in", str(code), "--mds", mode,
                   "--enum-limit", str(enum_limit),
                   "--minor-limit", str(minor_limit)])
    assert rc in (0, 6), (rc, err.getvalue())
    assert rc == 0 or out.getvalue() == ""


def test_verify_auto_past_the_enum_limit_proves_mds_by_shape(tmp_path,
                                                             capsys):
    """Past --enum-limit, auto reports the GRS-shape proof, d = n-k+1."""
    code = tmp_path / "th8.json"
    code.write_text(grsdual.cosets.th8_code(13, 1, 3, 0, 2).to_json())
    start = time.perf_counter()
    rc, out, _ = run(capsys, ["verify", "--in", str(code)])
    assert time.perf_counter() - start < 1
    assert rc == 0
    assert out == ('{"d":184,"field":"GF(13^3)","k":183,"length":366,'
                   '"mds":true,"mode":"grs","self_dual":true}\n')
    code.write_text(T2_JSON)
    rc, out, _ = run(capsys, ["verify", "--in", str(code),
                              "--enum-limit", "1"])
    assert rc == 0
    assert out == ('{"d":3,"field":"GF(13)","k":2,"length":4,"mds":true,'
                   '"mode":"grs","self_dual":true}\n')


def test_verify_auto_never_reads_the_grs_shape(tmp_path, capsys,
                                              monkeypatch):
    """The Gram, the rank proof and the grs rung take the nodes from the
    code's points: nothing reads the shape off G, and G is not formed."""
    code = tmp_path / "th8.json"
    code.write_text(grsdual.cosets.th8_code(13, 1, 3, 0, 2).to_json())

    def refuse(*args):
        raise AssertionError("formed G or read its shape")

    monkeypatch.setattr(grsdual.grs, "_grs_eval_set", refuse)
    monkeypatch.setattr(grsdual.grs, "generator_matrix", refuse)
    rc, out, _ = run(capsys, ["verify", "--in", str(code)])
    assert rc == 0
    assert out == ('{"d":184,"field":"GF(13^3)","k":183,"length":366,'
                   '"mds":true,"mode":"grs","self_dual":true}\n')


def test_verify_text_format(tmp_path, capsys):
    code = tmp_path / "t2.json"
    run(capsys, T2_ARGS + ["--out", str(code)])
    rc, out, _ = run(capsys, ["verify", "--in", str(code), "--format", "text"])
    assert rc == 0
    assert out == ("d: 3\nfield: GF(13)\nk: 2\nlength: 4\n"
                   "mds: True\nmode: exhaustive\nself_dual: True\n")


def test_global_flag_before_or_after_subcommand(capsys):
    _, before, _ = run(capsys, ["--format", "text"] + T2_ARGS)
    _, after, _ = run(capsys, T2_ARGS + ["--format", "text"])
    assert before == after
    assert before.startswith("[4,2] self-dual code over GF(13)\n")


def test_tampered_code_fails_verification(tmp_path, capsys):
    code = tmp_path / "t2.json"
    run(capsys, T2_ARGS + ["--out", str(code)])
    obj = json.loads(code.read_text())
    # swap two multipliers: still well-formed, no longer self-dual
    obj["v"][0], obj["v"][1] = obj["v"][1], obj["v"][0]
    code.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, ["verify", "--in", str(code)])
    assert rc == 4
    report = json.loads(out)
    assert report["self_dual"] is False
    assert "mds" not in report


def test_verify_enum_limit(tmp_path, capsys):
    code = tmp_path / "t2.json"
    run(capsys, T2_ARGS + ["--out", str(code)])
    rc, _, err = run(capsys, ["verify", "--in", str(code),
                              "--mds", "exhaustive", "--enum-limit", "10"])
    assert rc == 6
    assert "enumeration too large" in err


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, ["verify", "--in", "/nonexistent/code.json"])
    assert rc == 1
    assert "cannot load code" in err


def test_verify_rejects_mangled_json(tmp_path, capsys):
    code = tmp_path / "broken.json"
    code.write_text('{"a": [0, 1], "k": 1}')
    rc, _, err = run(capsys, ["verify", "--in", str(code)])
    assert rc == 1
    assert "cannot load code" in err


def test_verify_rejects_integers_past_the_digit_limit(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not JSONDecodeError
    code = tmp_path / "huge_k.json"
    code.write_text(T2_JSON.replace('"k":2', '"k":' + "7" * 5000))
    rc, out, err = run(capsys, ["verify", "--in", str(code)])
    assert rc == 1
    assert out == ""
    assert err.startswith("verify: cannot load code: ")
    assert err.count("\n") == 1


def test_hypothesis_violation_exits_2(capsys):
    rc, _, err = run(capsys, ["construct", "--theorem", "th2",
                              "--p", "5", "--m", "1", "--e", "0", "--t", "3"])
    assert rc == 2
    assert err == ("hypothesis not met: chi(3) = -1 at i = 1 "
                   "fails the square condition\n")


def test_composite_field_order_exits_2(capsys):
    """A composite --r is a failed hypothesis, like a composite --q."""
    for theorem, flags, r in (
            ("th1", ["--m", "1", "--e", "0", "--t", "1"], "15"),
            ("th8", ["--s", "1", "--m", "1", "--e", "0", "--t", "2"], "6")):
        rc, out, err = run(capsys, ["construct", "--theorem", theorem,
                                    "--r", r, *flags])
        assert rc == 2 and out == ""
        assert err == f"hypothesis not met: {r} is not a prime power\n"


def test_large_q_below_bound(capsys):
    # from n = 506 the literal bound overflows a float and reads as inf
    for n in ("4", "506", "2000"):
        rc, _, err = run(capsys, ["construct", "--theorem", "large_q",
                                  "--q", "13", "--n", n])
        assert rc == 2
        assert "hypothesis not met" in err and "clique bound" in err
    # permissive mode skips the bound and lets the search itself fail
    rc, _, err = run(capsys, ["construct", "--theorem", "large_q",
                              "--q", "13", "--n", "4", "--permissive"])
    assert rc == 2
    assert "greedy search failed" in err


def test_construct_refuses_bad_field_orders(capsys):
    for q in ("1", "0", "-5", "15"):
        rc, _, err = run(capsys, ["construct", "--theorem", "large_q",
                                  "--q", q, "--n", "4"])
        assert rc == 2
        assert err == f"hypothesis not met: {q} is not a prime power\n"
    # refused by size before trial division could run for minutes
    for argv in (["large_q", "--q", "2305843009213693951", "--n", "4"],
                 ["th1", "--r", "2305843009213693951", "--m", "1",
                  "--e", "0", "--t", "1"]):
        rc, _, err = run(capsys, ["construct", "--theorem", *argv])
        assert rc == 6
        assert "field too large" in err
    # a nonpositive extension degree is a failed hypothesis, not a crash
    for argv in (["th1", "--r", "5", "--m", "0", "--e", "0", "--t", "1"],
                 ["th1", "--r", "5", "--m", "-2", "--e", "0", "--t", "1"],
                 ["th8", "--r", "5", "--s", "0", "--m", "3", "--e", "0",
                  "--t", "2"]):
        rc, out, err = run(capsys, ["construct", "--theorem", *argv])
        assert rc == 2
        assert out == ""
        assert err.startswith("hypothesis not met: extension degree ")
        assert err.count("\n") == 1


def test_verify_refuses_huge_fields_fast(tmp_path, capsys):
    good = json.loads(T2_JSON)
    for key, value in (("p", 2305843009213693951), ("m", 1000000000)):
        obj = copy.deepcopy(good)
        obj["field"][key] = value
        code = tmp_path / "huge.json"
        code.write_text(json.dumps(obj))
        t0 = time.perf_counter()
        rc, _, err = run(capsys, ["verify", "--in", str(code)])
        assert rc == 6
        assert "field too large" in err
        assert time.perf_counter() - t0 < 1.0


def test_verify_refuses_fields_past_int32_tables(tmp_path, capsys,
                                                monkeypatch):
    """GF(3^20) is within a 2**40 table limit, but q - 1 >= 2**31 would
    wrap the int32 tables: exit 6 before any table or modulus search."""
    def no_build(*args):
        raise AssertionError("built a field past int32 tables")

    monkeypatch.setattr(grsdual.field, "_build_field", no_build)
    monkeypatch.setattr(grsdual.field, "find_modulus", no_build)
    obj = json.loads(T2_JSON)
    obj["field"]["p"], obj["field"]["m"] = 3, 20
    code = tmp_path / "gf3_20.json"
    code.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["verify", "--in", str(code),
                              "--table-limit", str(2 ** 40)])
    assert rc == 6
    assert "field too large" in err and "int32" in err


def test_verify_refuses_codes_past_the_verify_limit(tmp_path, capsys,
                                                    monkeypatch):
    """A [4474,2237] code, k n just past 10^7, exits 6 as construct
    does, before its generator matrix is formed."""
    def no_matrix(*args, **kwargs):
        raise AssertionError("formed a matrix past the verify limit")

    monkeypatch.setattr(grsdual.grs, "generator_matrix", no_matrix)
    f = make_field(3, 8)
    rng = random.Random(0x4474)
    obj = {"field": f.descriptor(), "a": rng.sample(range(f.q), 4474),
           "v": [rng.randrange(1, f.q) for _ in range(4474)],
           "extended": False, "k": 2237}
    code = tmp_path / "big.json"
    code.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    rc, out, err = run(capsys, ["verify", "--in", str(code)])
    assert (rc, out) == (6, "")
    assert err.startswith("code too large to verify: verifying a "
                          "[4474,2237] code")
    assert time.perf_counter() - t0 < 1.0
    # a k past the length is malformed, however large k n is
    obj = json.loads(T2_JSON)
    obj["k"] = 3 * 10 ** 6
    code.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["verify", "--in", str(code)])
    assert rc == 1
    assert "cannot load code: k = 3000000 out of range" in err


def test_verify_checks_the_modulus_before_building_the_field(tmp_path,
                                                             capsys):
    """A wrong modulus for GF(2039^2) exits 1 without building the
    field's tables, which would take about a second and 280 MB."""
    obj = json.loads(T2_JSON)
    obj["field"] = {"p": 2039, "m": 2, "modulus": [3, 0, 1], "theta": 2}
    code = tmp_path / "modulus.json"
    code.write_text(json.dumps(obj))
    built = grsdual.field._build_field.cache_info().misses
    rc, out, err = run(capsys, ["verify", "--in", str(code)])
    assert (rc, out) == (1, "")
    assert err == ("verify: cannot load code: field modulus does not "
                   "match the canonical one\n")
    assert grsdual.field._build_field.cache_info().misses == built


def test_verify_rejects_non_integer_points(tmp_path, capsys):
    obj = json.loads(T2_JSON)
    obj["a"] = [0.25, 1, 2, 5]  # int() would make this the valid code
    code = tmp_path / "float.json"
    code.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["verify", "--in", str(code)])
    assert rc == 1
    assert "cannot load code" in err


_MISSING = object()


@pytest.mark.parametrize(
    "key, value",
    [("theta", 7), ("theta", None), ("theta", _MISSING), ("theta", True),
     ("modulus", [13, 1]), ("modulus", [-13, 14])],
    ids=["theta-7", "theta-null", "theta-missing", "theta-true",
         "modulus-13-1", "modulus-minus13-14"])
def test_verify_rejects_a_loose_field_block(tmp_path, capsys, key, value):
    """theta must be the JSON integer 2 and each modulus coefficient lie
    in [0, p); read loosely, each of these files is the valid code."""
    obj = json.loads(T2_JSON)
    if value is _MISSING:
        del obj["field"][key]
    else:
        obj["field"][key] = value
    with pytest.raises(SchemaError):
        code_from_obj(obj)
    code = tmp_path / "field.json"
    code.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["verify", "--in", str(code)])
    assert rc == 1
    assert "cannot load code" in err


def test_large_q_constructs(capsys):
    rc, out, _ = run(capsys, ["construct", "--theorem", "large_q",
                              "--q", "49", "--n", "4"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["provenance"] == {"n": 4, "theorem": "large_q"}
    assert len(obj["a"]) == 4


def test_iterated_lift_via_ms(capsys):
    rc, out, _ = run(capsys, ["construct", "--theorem", "cor1", "--r", "5",
                              "--s", "1", "--ms", "3,1", "--e", "0",
                              "--t", "2"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["provenance"]["ms"] == [3, 1]
    # a trailing factor of 1 is the identity lift on the [62,31] base
    assert len(obj["a"]) == 62


def test_iterated_lift_too_large(capsys, monkeypatch):
    def no_expansion(*args, **kwargs):
        raise AssertionError("expanded a tower the scale guard refuses")

    # the refusal comes from the closed-form length, before any coset
    monkeypatch.setattr(grsdual.cosets, "coset_points", no_expansion)
    rc, _, err = run(capsys, ["construct", "--theorem", "cor1", "--r", "5",
                              "--s", "1", "--ms", "3,3", "--e", "0",
                              "--t", "2"])
    assert rc == 6
    assert "code too large to verify" in err


def test_table_limit_exits_6(capsys):
    rc, _, err = run(capsys, ["construct", "--theorem", "th2", "--p", "13",
                              "--m", "2", "--e", "1", "--t", "3",
                              "--table-limit", "100"])
    assert rc == 6
    assert "field too large" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "grsdual.cfg"
    cfg.write_text("# comment lines are skipped\ntable_limit = 100\n")
    rc, _, err = run(capsys, ["construct", "--theorem", "th2", "--p", "13",
                              "--m", "2", "--e", "1", "--t", "3",
                              "--config", str(cfg)])
    assert rc == 6
    assert "exceeds the table limit 100" in err
    # a flag on the command line overrides the config value
    rc, out, _ = run(capsys, ["construct", "--theorem", "th2", "--p", "13",
                              "--m", "2", "--e", "1", "--t", "3",
                              "--config", str(cfg), "--table-limit", "200000"])
    assert rc == 0
    assert json.loads(out)["k"] == 26


def test_config_format_key(tmp_path, capsys):
    cfg = tmp_path / "grsdual.cfg"
    cfg.write_text("format = text\n")
    rc, out, _ = run(capsys, T2_ARGS + ["--config", str(cfg)])
    assert rc == 0
    assert out.startswith("[4,2] self-dual code over GF(13)\n")


def test_each_setting_has_one_name(tmp_path):
    """--enum-limit and the enumeration_limit key set one CliConfig
    field; the flag wins over the file, and --help keeps the flag's
    name.  --samples and its sample_count key are gone."""
    cfg = tmp_path / "grsdual.cfg"
    cfg.write_text("enumeration_limit = 11\n")
    parse = cli._build_parser().parse_args
    base = ["verify", "--config", str(cfg)]
    assert cli._load_config(parse(base)).enumeration_limit == 11
    got = cli._load_config(parse(base + ["--enum-limit", "21"]))
    assert got.enumeration_limit == 21
    usage = cli._build_parser().format_help()
    assert "--enum-limit ENUM_LIMIT" in usage
    assert "--samples" not in usage
    cfg.write_text("sample_count = 12\n")
    with pytest.raises(ValueError, match="bad config line"):
        cli._load_config(parse(base))


def test_config_rejects_unknown_key(tmp_path, capsys):
    # a method or dunder of the config object is no config key either
    cfg = tmp_path / "grsdual.cfg"
    for line in ("bogus = 7", "validate = 3", "__class__ = 3"):
        cfg.write_text(line + "\n")
        rc, _, err = run(capsys, ["selftest", "--max-q", "13",
                                  "--config", str(cfg)])
        assert rc == 1
        assert err == f"config: bad config line: {line!r}\n"


def test_config_rejects_bad_value(capsys):
    rc, _, err = run(capsys, T2_ARGS + ["--table-limit", "0"])
    assert rc == 1
    assert "table_limit must be positive" in err


def test_catalog_output(tmp_path, capsys):
    rc, out, _ = run(capsys, ["catalog", "--q", "7", "--max-n", "10"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ('{"certificate":null,"n":2,"provenance":[],"q":7,'
                        '"status":"nonexistent","verified":false}')
    assert len(lines) == 5
    row = json.loads(lines[1])
    assert row["status"] == "constructed"
    assert row["verified"] is True
    assert row["certificate"]["provenance"]["theorem"] == "th10"

    csv_path = tmp_path / "catalog.csv"
    rc, _, _ = run(capsys, ["catalog", "--q", "7", "--max-n", "8",
                            "--csv", str(csv_path)])
    assert rc == 0
    assert csv_path.read_text() == ("q,n,status,theorem\n"
                                    "7,2,nonexistent,\n"
                                    "7,4,constructed,th10\n"
                                    "7,6,nonexistent,\n"
                                    "7,8,constructed,th4\n")

    rc, out, _ = run(capsys, ["catalog", "--q", "7", "--max-n", "4",
                              "--format", "text"])
    assert rc == 0
    assert out == ("q=7 n=2 nonexistent -\n"
                   "q=7 n=4 constructed th10\n")


def test_catalog_deterministic(capsys):
    _, first, _ = run(capsys, ["catalog", "--q", "25", "--max-n", "12"])
    _, second, _ = run(capsys, ["catalog", "--q", "25", "--max-n", "12"])
    assert first == second


def test_catalog_refuses_lengths_past_every_buildable_field(capsys):
    # a field within the table limit has q + 1 <= table limit + 1, and
    # every longer row holds no code
    rc, out, err = run(capsys, ["catalog", "--q", "3", "--max-n", "1002",
                                "--table-limit", "1000"])
    assert (rc, out) == (6, "")
    assert "n_max = 1002 exceeds the table limit 1000 + 1" in err
    rc, out, _ = run(capsys, ["catalog", "--q", "3", "--max-n", "1000",
                              "--table-limit", "1000"])
    assert rc == 0
    assert len(out.splitlines()) == 500
    # at q = table limit, the length q + 1 is still listed
    rc, out, _ = run(capsys, ["catalog", "--q", "7", "--max-n", "8",
                              "--table-limit", "7", "--format", "text"])
    assert rc == 0
    assert out.splitlines()[-1] == "q=7 n=8 constructed th4"
    # refused before any field is built: 3^21 is past the table limit
    for q in (3, 3 ** 21):
        start = time.perf_counter()
        rc, out, err = run(capsys, ["catalog", "--q", str(q),
                                    "--max-n", str(10 ** 12)])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (6, "")
        assert "catalog too large" in err


def test_selftest_clean_run(capsys):
    rc, out, err = run(capsys, ["selftest", "--max-q", "13"])
    assert rc == 0
    assert err == ""
    for line in out.splitlines():
        assert line.endswith("checks, 0 failures")


def test_selftest_refuses_max_q_past_the_table_limit(capsys):
    """Exit 6 before the sieve up to max_q is allocated or any field is
    built, so the refusal costs nothing however large max_q is."""
    start = time.perf_counter()
    rc, out, err = run(capsys, ["selftest", "--max-q", str(10 ** 8),
                                "--table-limit", "100"])
    assert time.perf_counter() - start < 1
    assert (rc, out) == (6, "")
    assert "max_q = 100000000 exceeds the table limit 100" in err


def test_selftest_refuses_max_q_past_its_bound(capsys, monkeypatch):
    """Past MAX_SELFTEST_Q, exit 6 before any field is built; the bound
    admits the max_q 200 that CI and the acceptance test run."""
    bound = grsdual.selftest.MAX_SELFTEST_Q
    assert bound >= 200
    built = []
    monkeypatch.setattr(grsdual.selftest, "make_field",
                        lambda *args: built.append(args))
    rc, out, err = run(capsys, ["selftest", "--max-q", str(bound + 1)])
    assert (rc, out, built) == (6, "", [])
    assert err == (f"field too large: max_q = {bound + 1} exceeds the "
                   f"selftest bound {bound}\n")


@pytest.mark.parametrize("argv, fields", [
    (["selftest", "--max-q", "2"], None),
    (["selftest", "--max-q", "0"], None),
    (["selftest", "--max-q", "-5"], None),
    (["selftest"], []),
])
def test_selftest_without_a_field_exits_1(capsys, argv, fields):
    """With no odd prime power q >= 3 to test, every suite would report
    0 checks and 0 failures; the run is refused instead of passing."""
    rc, out, err = run(capsys, argv, _selftest_fields=fields)
    assert (rc, out) == (1, "")
    assert "no odd prime power" in err


def test_selftest_reports_injected_fault(capsys):
    bad = copy.deepcopy(make_field(13))
    bad._zech[3] = (bad._zech[3] + 5) % 12
    rc, out, _ = run(capsys, ["selftest", "--max-q", "13"],
                     _selftest_fields=[bad])
    assert rc == 7
    assert "witness: GF(13)" in out
    # the shared cache must not see the corrupted copy
    rc, _, _ = run(capsys, ["selftest", "--max-q", "13"])
    assert rc == 0


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["construct"]) == 1
    capsys.readouterr()
    assert main(["nosuch"]) == 1
    capsys.readouterr()
    rc, _, err = run(capsys, ["construct", "--theorem", "nosuch"])
    assert rc == 1
    assert "invalid choice" in err


def test_the_cached_parser_carries_nothing_between_calls(tmp_path, capsys,
                                                         monkeypatch):
    """main reuses one parser; each call in a mixed run must print and
    exit exactly as a call on a freshly built parser does."""
    code = tmp_path / "t2.json"
    code.write_text(T2_JSON + "\n")
    verify = ["verify", "--in", str(code)]
    calls = [
        T2_ARGS + ["--format", "text"],
        T2_ARGS,
        verify + ["--mds", "none", "--format", "text"],
        verify + ["--samples", "0"],
        verify + ["--mds", "sampled", "--samples", "7"],
        verify,
        ["--format", "text", "catalog", "--q", "13", "--max-n", "8"],
        ["catalog", "--q", "13", "--max-n", "8"],
        verify + ["--mds", "minors", "--enum-limit", "1"],
        ["construct", "--theorem", "th2"],
        ["selftest", "--max-q", "13", "--format", "text"],
        verify + ["--mds", "nosuch"],
        verify + ["--mds", "exhaustive"],
    ]
    cached = [run(capsys, argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(capsys, argv) for argv in calls]
    assert cached == fresh
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 1, 1, 0, 0, 0, 0, 1,
                                           0, 1, 0]


def test_help_exits_0(capsys):
    rc, out, _ = run(capsys, ["--help"])
    assert rc == 0
    assert "construct" in out


# Wire-format fuzzing.  Witnesses: plain GF(13), extended GF(169) and
# plain GF(25), the last two with a nontrivial modulus.  A table limit
# of 10^4 keeps every field a mutated p or m can ask for small; the
# default limit is the same code path at up to 2^22 entries.
WITNESSES = (json.loads(T2_JSON), th3_code(13, 2, 0, 2).to_obj(),
             th1_code(5, 2, 0, 1).to_obj())
FUZZ_LIMIT = 10 ** 4
PATHS = ((), ("field",), ("field", "p"), ("field", "m"),
         ("field", "modulus"), ("field", "modulus", 0), ("field", "theta"),
         ("a",), ("a", 0), ("v",), ("v", 1), ("k",), ("extended",),
         ("provenance",))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=3)
    | st.integers(-4, 20) | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.sampled_from([0, 1, -1, 2 ** 63, -2 ** 63, 10 ** 4000]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _mutate(obj, path, op, value):
    """Delete, replace, nest or add a sibling key at path inside obj."""
    if not path:
        return value if op != "nest" else [obj]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "delete":
        del parent[key]
    elif op == "replace":
        parent[key] = value
    elif op == "nest":
        parent[key] = [parent[key]]
    elif isinstance(parent, dict):
        parent["extra"] = value
    elif isinstance(parent, list):
        parent.append(value)
    return obj


@settings(max_examples=150, deadline=2000)
@given(st.sampled_from(WITNESSES), st.data())
def test_wire_format_fuzz(tmp_path_factory, witness, data):
    """Only SchemaError or TableLimitExceeded escapes code_from_obj, and
    verify exits with its documented code on the same file."""
    obj = copy.deepcopy(witness)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(PATHS))
        op = data.draw(st.sampled_from(("delete", "replace", "nest", "extra")))
        try:
            obj = _mutate(obj, path, op, data.draw(JSON_VALUES))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the path
    try:
        code_from_obj(obj, FUZZ_LIMIT)
        expected = (0, 1, 4, 5, 6)  # loaded; verify decides
    except SchemaError:
        expected = (1,)
    except TableLimitExceeded:
        expected = (6,)
    code = tmp_path_factory.mktemp("fuzz") / "code.json"
    code.write_text(json.dumps(obj))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = main(["verify", "--in", str(code),
                   "--table-limit", str(FUZZ_LIMIT)])
    assert rc in expected, (obj, sink.getvalue())
