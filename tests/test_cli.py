"""End-to-end checks for the grsdual command line.

Everything runs in-process through main(argv) so exit codes and output
can be asserted without spawning subprocesses.  The [4,2] code over
GF(13) from the even-length family is the workhorse fixture: small
enough to read by eye, and its serialized form is frozen below.
"""

import contextlib
import copy
import hashlib
import io
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import grsdual.cosets
import grsdual.field
import grsdual.grs
from grsdual import make_field
from grsdual.cli import main
from grsdual.errors import SchemaError, TableLimitExceeded
from grsdual.grs import code_from_obj
from grsdual.subspace import th1_code, th3_code

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
    calls = []
    original = grsdual.grs.generator_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    code = tmp_path / "t2.json"
    run(capsys, T2_ARGS + ["--out", str(code)])
    monkeypatch.setattr(grsdual.grs, "generator_matrix", counting)
    rc, out, _ = run(capsys, ["verify", "--in", str(code), "--mds", "none"])
    assert rc == 0 and json.loads(out)["self_dual"] is True
    assert len(calls) == 1


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
    rc, _, err = run(capsys, ["construct", "--theorem", "large_q",
                              "--q", "13", "--n", "4"])
    assert rc == 2
    assert "clique bound" in err
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


def test_selftest_clean_run(capsys):
    rc, out, err = run(capsys, ["selftest", "--max-q", "13"])
    assert rc == 0
    assert err == ""
    for line in out.splitlines():
        assert line.endswith("checks, 0 failures")


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
