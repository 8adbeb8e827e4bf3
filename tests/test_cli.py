import contextlib
import copy
import hashlib
import io
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import ZOO_DOC
from wdexp import bounds, generator
from wdexp.cli import run_command
from wdexp.generator import SplitMix64
from wdexp.jordan import Partition
from wdexp.model import ModelInstance, load_model


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


def test_gen_model_serializes_once(tmp_path, capsys, monkeypatch):
    # The written file and the printed digest read the one text that one
    # to_json call made, so the digest is the sha256 of the file.  A build
    # is a call that finds no kept text.
    builds, to_json = [], ModelInstance.to_json

    def counting_to_json(self):
        if self._json is None:
            builds.append(self)
        return to_json(self)

    monkeypatch.setattr(ModelInstance, "to_json", counting_to_json)
    path = tmp_path / "m.json"
    code, out, _ = _run(capsys, "gen-model", "--classes-per-level", "3", "-o", str(path))
    assert code == 0
    assert len(builds) == 1
    assert out.split()[1] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_model_cost_does_not_grow_with_dims(tmp_path, capsys, monkeypatch):
    # With --dims 10000 the level 1/2 holds only dimension-10000 classes, so
    # its grid has g = 10^8 units of 1/g.  The generator makes one Fraction
    # per distinct tree height, never one per grid point; past the cap the
    # counter stops the run instead of letting it fill memory.
    made = []

    def counting_fraction(*args):
        made.append(args)
        if len(made) > 100:
            raise AssertionError("gen-model makes a Fraction per grid point")
        return Fraction(*args)

    monkeypatch.setattr(generator, "Fraction", counting_fraction)
    path = tmp_path / "m.json"
    code, out, _ = _run(capsys, "gen-model", "--dims", "10000", "-o", str(path))
    assert code == 0
    assert out.split()[1] == "cf8361aacb53bec46a39b90c0aa21aa835dbe2626ff323d237ff3ead58e1da3c"
    assert len(made) <= 100


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


def test_readme_rerun_snippet_reruns_every_row(tmp_path, capsys):
    # The README's recipe for rerunning a report row, run as written: the
    # fenced block after "To rerun a row today", with `m` the regenerated
    # model whose digest is the row's and `row` the row.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("To rerun a row today")) + len("```python\n")
    snippet = compile(readme[start:readme.index("```", start)], "README.md", "exec")
    report = tmp_path / "r.json"
    assert _run(capsys, "check", "--models", "3", "--pairs", "10", "--out", str(report))[0] == 0
    models = {}
    for seed in range(3):
        path = tmp_path / f"m{seed}.json"
        assert _run(capsys, "gen-model", "--seed", str(seed), "-o", str(path))[0] == 0
        m = load_model(path)
        models[m.digest()] = m
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert len(models) == 3 and {row["inputs"]["model"] for row in rows} == set(models)
    for row in rows:
        scope = {"m": models[row["inputs"]["model"]], "row": row}
        exec(snippet, scope)
        assert scope["again"].to_json_dict() == row


def test_check_violation_exits_1(tmp_path, capsys, monkeypatch):
    # checks_for_pair calls the checks by their module names, so a patched
    # check_bound_C is the one the sweep runs: its general eta row fails.
    check_bound_C = bounds.check_bound_C

    def violated(p, mode="eta", variant="general"):
        r = check_bound_C(p, mode, variant)
        if (mode, variant) != ("eta", "general"):
            return r
        return bounds.CheckResult(r.theorem, r.rn + r.rd, r.rd, r.rn, r.rd, False, False, r.inputs)

    monkeypatch.setattr(bounds, "check_bound_C", violated)
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "check", "--theorems", "C", "--models", "1", "--pairs", "1",
        "--seed", "7", "--out", str(out_path),
    )
    assert code == 1
    failed = [row for row in json.loads(out_path.read_text()) if not row["holds"]]
    assert len(failed) == 1 and failed[0]["theorem"] == "C"
    assert Fraction(failed[0]["lhs"]) == Fraction(failed[0]["rhs"]) + 1
    assert "C: samples=1 violations=1 equalities=0 precondition_failures=0" in out.splitlines()


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
    assert _run(capsys, "oracle", "--max-r", "4", "--max-terms", "2") == (
        0, "oracle: 105 tensor pairs checked, 0 mismatches; 16 block pairs, 0 failures\n", "")
    assert _run(capsys, "oracle", "--max-r", "3", "--max-terms", "2") == (
        0, "oracle: 45 tensor pairs checked, 0 mismatches; 9 block pairs, 0 failures\n", "")


def test_oracle_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("wdexp.cli.unramified_oracle_artin", lambda x, y: -1)
    code, out, err = _run(capsys, "oracle", "--max-r", "2", "--max-terms", "1")
    assert code == 1
    assert err.splitlines() == [
        "MISMATCH: Sp_1(u) (x) Sp_1(u): formula=0 rank=-1",
        "MISMATCH: Sp_1(u) (x) Sp_2(u): formula=1 rank=-1",
        "MISMATCH: Sp_2(u) (x) Sp_2(u): formula=2 rank=-1",
    ]
    assert out == "oracle: 3 tensor pairs checked, 3 mismatches; 4 block pairs, 0 failures\n"


def test_oracle_block_law_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("wdexp.cli.tensor_partition", lambda m, n: Partition((m + n,)))
    code, out, err = _run(capsys, "oracle", "--max-r", "2", "--max-terms", "1")
    assert code == 1
    assert err.splitlines() == [
        "BLOCK LAW FAIL at (1,1): rank=0 type=(2,)",
        "BLOCK LAW FAIL at (1,2): rank=1 type=(3,)",
        "BLOCK LAW FAIL at (2,1): rank=1 type=(3,)",
        "BLOCK LAW FAIL at (2,2): rank=2 type=(4,)",
    ]
    assert out == "oracle: 3 tensor pairs checked, 0 mismatches; 4 block pairs, 4 failures\n"


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


def test_sharpness_exits_1_on_a_row_that_fails(tmp_path, capsys, monkeypatch):
    """A row that does not hold, or one whose precondition failed, makes
    `sharpness` exit 1; --out still holds every row."""
    import wdexp.cli

    violated = bounds.CheckResult("A", 1, 3, 1, 2, False, False, {"case": "v"})
    unmet = bounds.CheckResult("AS", 1, 1, 1, 2, True, False, {"case": "p"}, True)
    for rows, lines in (([violated, unmet], "A: lhs=1/3 rhs=1/2 VIOLATED\nAS: lhs=1 rhs=1/2 holds\n"),
                        ([unmet], "AS: lhs=1 rhs=1/2 holds\n")):
        monkeypatch.setattr(wdexp.cli, "sharpness_suite", lambda: rows)
        out_path = tmp_path / "sharp.json"
        assert _run(capsys, "sharpness", "--out", str(out_path)) == (1, lines, "")
        assert out_path.read_text(encoding="utf-8") == bounds.results_to_json(rows)


def test_reports_are_the_json_dumps_text(tmp_path, capsys):
    """The single-term report of `check` and the report of `sharpness` are,
    byte for byte, the indent=1, sort_keys=True text of json.dumps; the
    first has 474 rows and holds all ten labels."""
    r1, s = tmp_path / "r1.json", tmp_path / "s.json"
    assert _run(capsys, "check", "--models", "3", "--pairs", "20", "--max-terms", "1",
                "--max-r", "2", "--out", str(r1))[0] == 0
    assert _run(capsys, "sharpness", "--out", str(s))[0] == 0
    for path in (r1, s):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", path.name
    rows = json.loads(r1.read_text(encoding="utf-8"))
    assert len(rows) == 474
    assert sorted({row["theorem"] for row in rows}) == sorted(bounds.LABELS)


def test_gen_model_83_class_line_is_pinned(tmp_path, capsys, monkeypatch):
    """CI's 83-class `gen-model` line, repair rounds included, and the
    digest it prints is the sha256 of the file it writes."""
    monkeypatch.chdir(tmp_path)
    digest = "9ce7fb9a8377734b13324903f6c8350ed98985bd8bddd9b8a2c86e8182cc7456"
    assert _run(capsys, "gen-model", "--classes-per-level", "20", "-o", "p") == (
        0, f"model {digest} (83 classes, 1 repair rounds) -> p\n", "")
    assert hashlib.sha256((tmp_path / "p").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", ("check", "sharpness"))
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    """An --out that cannot be written exits 2 with the error that writing
    it would raise, before any model is generated or any check is run."""
    import wdexp.bounds
    import wdexp.cli

    def never(*args, **kwargs):
        raise AssertionError("work started although --out cannot be written")

    monkeypatch.setattr(wdexp.bounds, "gen_model_with_stats", never)
    monkeypatch.setattr(wdexp.cli, "sharpness_suite", never)
    for path in (tmp_path / "missing" / "report.json", tmp_path):
        with pytest.raises(OSError) as raised:
            open(path, "w")
        argv = [command, "--out", str(path)] + (["--models", "1", "--pairs", "1"]
                                                if command == "check" else [])
        assert _run(capsys, *argv) == (2, "", f"error: {raised.value}\n")
    assert not (tmp_path / "missing").exists()


def test_gen_model_unwritable_out_fails_before_generating(tmp_path, capsys, monkeypatch):
    import wdexp.cli

    calls = []
    monkeypatch.setattr(wdexp.cli, "gen_model_with_stats", lambda *args: calls.append(args))
    path = tmp_path / "missing" / "m.json"
    code, out, err = _run(capsys, "gen-model", "--classes-per-level", "20", "-o", str(path))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_usage_error_leaves_no_report(tmp_path, capsys):
    new, old, link = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "link.json"
    old.write_text("kept\n")
    link.symlink_to(tmp_path / "target.json")  # dangling
    # a usage error before the writability check, and a generator error after it
    for flags in (["--models", "0"], ["--levels", "1/2", "--dims", "3"]):
        for path in (new, old, link):
            assert _run(capsys, "check", *flags, "--out", str(path))[:2] == (2, "")
    assert not new.exists()
    assert old.read_text() == "kept\n"
    assert link.is_symlink() and not (tmp_path / "target.json").exists()


def test_usage_error_exit_2(capsys):
    assert _run(capsys, "eval", "-m", "/nonexistent.json", "-e", "Sp_1(u)")[0] == 2
    assert _run(capsys, "bound", "--d1", "1", "--v1", "1/0", "--d2", "1", "--v2", "1")[0] == 2
    # a run that would check nothing is a usage error, not a clean run
    for flag in ("--max-r", "--max-terms"):
        assert _run(capsys, "oracle", flag, "0") == (
            2, "", "error: --max-r and --max-terms must be >= 1\n")
    for flag, value in (("--models", "0"), ("--pairs", "0"), ("--max-terms", "0"),
                        ("--max-r", "0"), ("--theorems", ",")):
        assert _run(capsys, "check", flag, value)[:2] == (2, "")
    assert _run(capsys, "no-such-command")[0] == 2
    assert _run(capsys, "minimal", "-m", "x", "-e", "y", "--mode", "weird")[0] == 2


# -- the CLI's usage, help and error text ----------------------------------

_COMMANDS = ("eval", "tensor", "minimal", "check", "gen-model", "oracle", "bound", "sharpness")

# sha256 of f"{exit code}\n{stdout}\n{stderr}" of each argv (joined by spaces
# here) with COLUMNS=80, recorded when run_command still built every
# subparser on each call.  argparse's text differs between Python versions:
# 3.10.13, 3.11.7 and 3.12.1 print the same, and 3.13.13 differs in the
# entries of _CLI_TEXT_SHA256_313.  Other versions skip the pin.
_CLI_TEXT_SHA256 = {
    "": "2d9c328d53b70cbb70cf46838fdb251f16575905f07602d5df87491b48344658",
    "-h": "b717f09e45eeaccfc595790b492db36fc2eebb8bc5c45ec542af9424276d1309",
    "--help": "b717f09e45eeaccfc595790b492db36fc2eebb8bc5c45ec542af9424276d1309",
    "no-such-command": "e5ecc6b7d90f839c9629ccaec228b6095b3e09f7299e37765ee61e928a6f7e78",
    "eval --help": "3f37f2375f145cb4ce4fba31ebf6814d73e46e5724d3cacbf9905da3edaee6df",
    "tensor --help": "9bd373950bca5cedc0e7a5f5d8a58187b900d72b45f6f97127ba9dc7c0b86cb5",
    "minimal --help": "aa78c9576fccd17affc4c3f9c5f4635e8e4254edf857f5eabfa77ceee2387050",
    "check --help": "03f52a88c6ca0be21f7d4f87e8337a96f9db636c0728de07f53c8a09c7c76784",
    "gen-model --help": "c5f51b5d13d3e42206e00cbc08317c37ec0004ea44c9b3aec7b193af92260ccb",
    "oracle --help": "36546940ecdd2e8209f2010c93bb26cac2e4e1bfbfbeecc9ddcd637eaabe2a17",
    "bound --help": "d336346e793960ee0bf5ba614263fcd841c26325c85210c724ce70f386fbd474",
    "sharpness --help": "9c83a601c6d3a784db0ecfdc89115340635f862b62da69808afc49b3d59284ce",
    "eval": "f0e5d36f72a3010a449fa896a14c7eeb038f777f26f32ecf926e54b8d4ba6bf6",
    "eval -m x": "69e8ec7e5647e94fca202ab350346aa41e7b7803843babaed1dd9fa14231dbc1",
    "tensor": "823ecf32ee46c7c0a208fad81e3efa47a61ae5049dd7c2279c9ef1de1ee7578a",
    "tensor -m x -a y": "85ac87b8bf222e7e9d475641b17191b911429a2914adb4e9411d2fb12a593791",
    "minimal": "b0eee9c74afd4961571a3163792bca34936ab47ef2428de2718b8b479321385a",
    "minimal -m x": "2821e0aeba507b0784281a2836899a13ee76fde66673e01502987f33eef0ad40",
    "gen-model": "4fd4ef394d534cd5885dabc784cb3342ae9a52c8080b12dace54c413c8e79121",
    "bound": "dfd3467481f1f103148464263744430ceb2cee9ce6ce63fab2d7eb7132048167",
    "bound --d1 1 --v1 1 --d2 1": "2d709a59bc6150f8752a624b8996bfcfb86d4f3c3c52fe3df1814aea2a076246",
    "minimal --mode weird": "c4a4ae8142f0ab54872288b736be1406a22e0d7ed85629b7e855fd1f29f86720",
    "minimal -m x -e y --mode weird": "c4a4ae8142f0ab54872288b736be1406a22e0d7ed85629b7e855fd1f29f86720",
    "eval -m x -e y --bogus": "45e37c1940fe1e5eaf29f4be888713118aea52fe33277137aca8e20219401b1e",
    "check --models many": "2595c41b9a65f7bc955bf70754823848f1cf4c8083bfc039a293184755e812ab",
    "eval -m": "7ff17361776927f202727348610aa458d52a85b00d3fa9d9ea8c4333dbc27644",
    "-h eval": "b717f09e45eeaccfc595790b492db36fc2eebb8bc5c45ec542af9424276d1309",
    "-- eval": "9f7ae93fcd4d16db9da5ec2161df14e814e0bb061141a3ce9a9b560bd4e12f09",
    "-x": "2d9c328d53b70cbb70cf46838fdb251f16575905f07602d5df87491b48344658",
}
_CLI_TEXT_SHA256_313 = {
    "no-such-command": "77805bb44651e7e0db1c98e5165e6bd3d7638187e1f735ab790a2e1628d3d5fb",
    "eval --help": "63382e323973ef1950abe33a41842936624c2e1610ad07fd11a009be32246814",
    "tensor --help": "ebdddceaf8ec5dadb07608e2950b7aaee8d47898624c080c673779a2fddbd49c",
    "minimal --help": "7d63c56fe85a2314099b642c94457c184639f53757a1897474e44201d971008c",
    "gen-model --help": "d3358f4e928a8be0352173e91529b5b7501a9f3511bc3f6297ce633ba73c4318",
    "minimal --mode weird": "fe603f90b603d6b01d012081af05f7214ae111f8fb0b0ae0120d72736da39ed1",
    "minimal -m x -e y --mode weird": "fe603f90b603d6b01d012081af05f7214ae111f8fb0b0ae0120d72736da39ed1",
    "-- eval": "f0e5d36f72a3010a449fa896a14c7eeb038f777f26f32ecf926e54b8d4ba6bf6",
}


def _cli_text_pins() -> dict:
    version = sys.version_info[:2]
    if (3, 10) <= version <= (3, 12):
        return _CLI_TEXT_SHA256
    if version == (3, 13):
        return {**_CLI_TEXT_SHA256, **_CLI_TEXT_SHA256_313}
    pytest.skip(f"no CLI text recorded for Python {version[0]}.{version[1]}")


def _cli_text(capsys, argv) -> str:
    code = run_command(list(argv))
    out = capsys.readouterr()
    return f"{code}\n{out.out}\n{out.err}"


def test_cli_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    pins = _cli_text_pins()
    got = {key: hashlib.sha256(_cli_text(capsys, key.split()).encode()).hexdigest()
           for key in pins}
    assert got == pins


def test_one_subparser_prints_what_the_full_parser_prints(capsys, monkeypatch):
    """An argv that starts with a subcommand builds only its parser and
    prints, on every Python version, what the parser of all subcommands
    prints."""
    import argparse

    from wdexp import cli

    monkeypatch.setenv("COLUMNS", "80")
    argvs = [key.split() for key in _CLI_TEXT_SHA256]
    argvs += [["bound", "--d1", "2", "--v1", "1/2", "--d2", "3", "--v2", "1"],
              ["check", "--models", "0"], ["oracle", "--max-r", "0"]]
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    lazy = []
    for argv in argvs:
        built.clear()
        lazy.append(_cli_text(capsys, argv))
        assert built == (argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS))
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: full())
    assert [_cli_text(capsys, argv) for argv in argvs] == lazy


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
    == 1, so a lookup of parsed slopes must never see it), as is "0_1",
    which `int` reads as 1."""
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
    spelled["pairing"][8]["slope"] = "0_1"
    path.write_text(json.dumps(spelled))
    code, out, err = _run(capsys, "eval", "-m", str(path), "-e", "Sp_1(u)")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_integer_flags_follow_the_spelling_rule(tmp_path, capsys):
    """Integer flags, --dims and representation integers are ASCII digits:
    `int` and a `\\d` pattern would read "1_0" as 10 and "\u0663" as 3."""
    model = tmp_path / "m.json"
    assert _run(capsys, "gen-model", "--seed", "-1", "--classes-per-level", " 1 ",
                "-o", str(model))[0] == 0
    bad = (
        ("gen-model", "--classes-per-level", "1_0", "--dims", "1,2_0", "--seed", "\u0663",
         "-o", str(tmp_path / "x.json")),
        ("gen-model", "--classes-per-level", "1_0", "-o", str(tmp_path / "x.json")),
        ("gen-model", "--dims", "1,2_0", "-o", str(tmp_path / "x.json")),
        ("gen-model", "--seed", "\u0663", "-o", str(tmp_path / "x.json")),
        ("check", "--models", "1_0", "--pairs", "\uff12"),
        ("check", "--models", "\uff12"),
        ("oracle", "--max-r", "\u0662"),
        ("bound", "--d1", "1_0", "--v1", "1", "--d2", "1", "--v2", "1"),
        ("eval", "-m", str(model), "-e", "\u0662*Sp_1(u)"),
    )
    for argv in bad:
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert [line for line in err.splitlines() if "error: " in line] == err.splitlines()[-1:], argv
    assert not (tmp_path / "x.json").exists()


def test_only_ascii_whitespace_separates(tmp_path, capsys, model_file):
    """Expressions, theorem lists and --levels/--dims lists skip only ASCII
    whitespace: an ideographic space is a usage error, not a separator."""
    assert _run(capsys, "eval", "-m", str(model_file), "-e", " Sp_1(u)\t+ Sp_2(u)\n")[0] == 0
    assert _run(capsys, "check", "--theorems", " A,\tC ", "--models", "1", "--pairs", "1")[0] == 0
    bad = (
        ("eval", "-m", str(model_file), "-e", "Sp_1(u)\u3000+ Sp_2(u)"),
        ("check", "--theorems", "A,\u3000C", "--models", "1", "--pairs", "1"),
        ("check", "--theorems", "A,\u3000", "--models", "1", "--pairs", "1"),
        ("gen-model", "--levels", "0,1,\u3000", "-o", str(tmp_path / "x.json")),
        ("gen-model", "--dims", "1,\u3000", "-o", str(tmp_path / "x.json")),
    )
    for argv in bad:
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
    assert not (tmp_path / "x.json").exists()


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
LOADER_MESSAGES_SHA256 = "ab79c1e01c5abdbc0b62b92bff716848a8659abc87dfd0aae88020eec24d626a"


def test_loader_fuzz_messages_are_pinned(fuzz_records):
    h = hashlib.sha256()
    for code, err in fuzz_records:
        h.update(f"{code} {err}\n".encode())
    assert h.hexdigest() == LOADER_MESSAGES_SHA256
