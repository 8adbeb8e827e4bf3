import contextlib
import copy
import hashlib
import io
import json
from collections import Counter

import pytest

from conftest import ZOO_DOC
from wdexp.cli import run_command
from wdexp.generator import SplitMix64
from wdexp.model import load_model


def _run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def model_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    code, _, _ = _run(capsys, "gen-model", "--seed", "7", "-o", str(path))
    assert code == 0
    return path


def test_eval(capsys, model_file):
    code, out, _ = _run(capsys, "eval", "-m", str(model_file), "-e", "Sp_3(u)")
    assert code == 0
    assert "ar=2" in out and "sw=0" in out and "eta=2/3" in out


def test_eval_zero(capsys, model_file):
    code, out, _ = _run(capsys, "eval", "-m", str(model_file), "-e", "0")
    assert code == 0
    assert "eta=undefined" in out


def test_tensor(capsys, model_file):
    code, out, _ = _run(capsys, "tensor", "-m", str(model_file),
                        "-a", "Sp_2(u)", "-b", "Sp_3(u)")
    assert code == 0
    assert "ar=4" in out


def test_minimal(capsys, model_file):
    code, out, _ = _run(capsys, "minimal", "-m", str(model_file), "-e", "Sp_1(u)",
                        "--mode", "eta")
    assert code == 0
    assert "eta-minimal: true" in out


def test_gen_model_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(capsys, "gen-model", "--seed", "42", "-o", str(p1))[0] == 0
    assert _run(capsys, "gen-model", "--seed", "42", "-o", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_check_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "check", "--theorems", "C", "--models", "1", "--pairs", "1",
        "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert rows and all(row["holds"] for row in rows)
    assert all(row["inputs"]["model"] for row in rows)
    assert "C:" in out


def test_check_csv_summary(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = _run(
        capsys, "check", "--theorems", "B,C", "--models", "1", "--pairs", "2",
        "--seed", "3", "--out", str(out_path), "--format", "csv",
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("theorem,samples,violations,equalities")


def test_oracle(capsys):
    code, out, _ = _run(capsys, "oracle", "--max-r", "4", "--max-terms", "2")
    assert code == 0
    assert "0 mismatches" in out


def test_bound(capsys):
    code, out, _ = _run(capsys, "bound", "--d1", "2", "--v1", "3", "--d2", "1", "--v2", "5")
    assert code == 0
    assert "bound=10" in out and "equality=true" in out


def test_sharpness(tmp_path, capsys):
    out_path = tmp_path / "sharp.json"
    code, out, _ = _run(capsys, "sharpness", "--out", str(out_path))
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert all(row["holds"] for row in rows)
    assert "A: lhs=3/4 rhs=3/4 equality" in out


def test_usage_error_exit_2(capsys):
    assert _run(capsys, "eval", "-m", "/nonexistent.json", "-e", "Sp_1(u)")[0] == 2
    assert _run(capsys, "bound", "--d1", "1", "--v1", "1/0", "--d2", "1", "--v2", "1")[0] == 2
    # a run that would check nothing is a usage error, not a clean run
    assert _run(capsys, "oracle", "--max-r", "0")[:2] == (2, "")
    assert _run(capsys, "oracle", "--max-terms", "0")[:2] == (2, "")
    for flag, value in (("--models", "0"), ("--pairs", "0"), ("--max-terms", "0"),
                        ("--max-r", "0"), ("--theorems", ",")):
        assert _run(capsys, "check", flag, value)[:2] == (2, "")
    assert _run(capsys, "no-such-command")[0] == 2
    assert _run(capsys, "minimal", "-m", "x", "-e", "y", "--mode", "weird")[0] == 2


def test_bad_expression_exit_2(capsys, model_file):
    code, _, err = _run(capsys, "eval", "-m", str(model_file), "-e", "Sp_2(")
    assert code == 2
    assert "error" in err


def test_invalid_model_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "classes": [
            {"id": "u", "dim": 1, "slope": "0", "deg": 1, "dual": "u",
             "flags": ["minimal_sigma", "minimal_eta"]},
            {"id": "i", "dim": 1, "slope": "1", "deg": 1, "dual": "i", "flags": []},
            {"id": "k", "dim": 1, "slope": "2", "deg": 1, "dual": "k", "flags": []},
        ],
        # i and k have distinct slopes, but the entry contradicts the max rule
        "pairing": [
            {"i": "i", "j": "i", "slope": "0"},
            {"i": "k", "j": "k", "slope": "0"},
            {"i": "i", "j": "k", "slope": "1/2"},
        ],
        "characters": ["u", "i", "k"],
    }))
    code, _, err = _run(capsys, "eval", "-m", str(bad), "-e", "Sp_1(u)")
    assert code == 2
    assert "M3" in err


def _eval_code(tmp_path, capsys, doc) -> int:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return _run(capsys, "eval", "-m", str(path), "-e", "Sp_1(u)")[0]


def test_malformed_model_files_exit_2(tmp_path, capsys):
    zero_den = copy.deepcopy(ZOO_DOC)
    zero_den["classes"][1]["slope"] = "1/0"
    no_dual = copy.deepcopy(ZOO_DOC)
    del no_dual["classes"][1]["dual"]
    typo_flag = copy.deepcopy(ZOO_DOC)
    typo_flag["classes"][1]["flags"] = ["minimal_Sigma"]
    int_flag = copy.deepcopy(ZOO_DOC)
    int_flag["classes"][1]["flags"] = [1]
    for doc in (zero_den, no_dual, ZOO_DOC["classes"], typo_flag, int_flag):
        assert _eval_code(tmp_path, capsys, doc) == 2
    assert _eval_code(tmp_path, capsys, ZOO_DOC) == 0
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert _run(capsys, "eval", "-m", str(deep), "-e", "Sp_1(u)")[0] == 2


def test_slope_spellings_load_alike(tmp_path, capsys):
    """One slope spelled 1, "1", "2/2" and " 1 " loads to the model of the
    canonical file, and a slope `true` after a `1` is still rejected (True
    == 1, so a lookup of parsed slopes must never see it)."""
    assert [e["slope"] for e in ZOO_DOC["pairing"][4:9]] == ["1", "1", "0", "1", "1"]
    spelled = copy.deepcopy(ZOO_DOC)
    for k, text in zip((4, 5, 7, 8), (1, "1", "2/2", " 1 ")):
        spelled["pairing"][k]["slope"] = text
    canonical, path = tmp_path / "canonical.json", tmp_path / "spelled.json"
    canonical.write_text(json.dumps(ZOO_DOC))
    path.write_text(json.dumps(spelled))
    assert load_model(path).digest() == load_model(canonical).digest()
    assert _run(capsys, "eval", "-m", str(path), "-e", "Sp_1(b)")[0] == 0
    spelled["pairing"][8]["slope"] = True
    path.write_text(json.dumps(spelled))
    code, _, err = _run(capsys, "eval", "-m", str(path), "-e", "Sp_1(u)")
    assert (code, err) == (2, "error: pairing entry 8: 'slope' is missing or has the wrong type\n")


def _paths(node, prefix=()):
    """The key path of every entry below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(doc, path, value):
    """A copy of doc with the entry at path replaced by value, or dropped
    when value is _DROP."""
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


_DROP = object()
_JUNK = (None, [], "1/0", "x", 0, -1, {})


def _fuzz_docs() -> list:
    """Every single-entry mutation of the zoo document, stacks of random
    ones, and three documents that are not objects."""
    docs = [[], "model", 7]
    for path in _paths(ZOO_DOC):
        docs.extend(_mutate(ZOO_DOC, path, v) for v in (_DROP,) + _JUNK)
    rng = SplitMix64(2024)
    for _ in range(150):
        doc = ZOO_DOC
        for _ in range(2 + rng.below(3)):
            paths = list(_paths(doc))
            if not paths:
                break
            doc = _mutate(doc, rng.choice(paths), rng.choice((_DROP,) + _JUNK))
        docs.append(doc)
    return docs


@pytest.fixture(scope="module")
def fuzz_records(tmp_path_factory):
    """(exit code, stderr with the model file's path removed) of `wdexp eval`
    on each fuzz document, in order; the documents are run once for the
    tests that read them."""
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    records = []
    for doc in _fuzz_docs():
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_command(["eval", "-m", str(path), "-e", "Sp_1(u)"])
        records.append((code, err.getvalue().replace(str(path), "<model>")))
    return records


def test_loader_fuzz_exit_codes(fuzz_records):
    """Every fuzz document loads as a valid model (exit 0) or fails as a
    usage error (exit 2)."""
    codes = Counter(code for code, _ in fuzz_records)
    assert set(codes) <= {0, 2}, codes
    assert codes[2] > len(fuzz_records) // 2


# sha256 of the exit code and the whole stderr (the "error:" line and any
# violation lines under it) of every fuzz document, with the model file's
# path removed: a change to the loader or the model constructor that moves
# any error message moves this value.
LOADER_MESSAGES_SHA256 = "b13aef60a024ee55285c258524ef1bc831450d32efcc5ee51df90504dcae3a8c"


def test_loader_fuzz_messages_are_pinned(fuzz_records):
    h = hashlib.sha256()
    for code, err in fuzz_records:
        h.update(f"{code} {err}\n".encode())
    assert h.hexdigest() == LOADER_MESSAGES_SHA256
