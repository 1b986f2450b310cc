"""End-to-end command-line flows through main(argv)."""

from __future__ import annotations

import inspect
import io
import json
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ustrindex import UncertainString, cli, container, parse_ust_file, write_ust_file
from ustrindex.cli import main

CORPUS = "abracadabra melon banana cabana almanac sonata" * 3


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS)
    return str(path)


@pytest.fixture
def genome_file(tmp_path, genome):
    path = tmp_path / "genome.ust"
    write_ust_file(path, genome)
    return str(path)


@pytest.fixture
def collection_file(tmp_path, collection):
    path = tmp_path / "coll.ust"
    write_ust_file(path, collection)
    return str(path)


def test_gen_writes_parseable_output(corpus_file, tmp_path):
    out = str(tmp_path / "gen.ust")
    assert main(["gen", corpus_file, "-o", out, "--theta", "0.3", "--seed", "5"]) == 0
    (u,) = parse_ust_file(out)
    assert u.n == len(CORPUS.replace(" ", ""))


def test_gen_defaults_to_stdout(corpus_file, capsys):
    assert main(["gen", corpus_file, "--name", "demo"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ustr demo\n") and out.rstrip().endswith("end")


def test_gen_splits_into_documents(corpus_file, tmp_path):
    out = str(tmp_path / "docs.ust")
    assert main(["gen", corpus_file, "-o", out, "--docs", "3"]) == 0
    docs = parse_ust_file(out)
    assert [d.name for d in docs] == ["d1", "d2", "d3"]


def test_build_and_query_pipeline(genome_file, tmp_path, capsys):
    idx = str(tmp_path / "g.usi")
    assert main(["build", genome_file, "-o", idx, "--tau-min", "0.1"]) == 0
    assert "built substring index" in capsys.readouterr().out

    assert main(["query", idx, "--pattern", "AT", "--tau", "0.4"]) == 0
    assert capsys.readouterr().out == "9\n"

    assert main(["query", idx, "--pattern", "AT", "--pattern", "ZZ", "--tau", "0.1"]) == 0
    assert capsys.readouterr().out == "7 9\n\n"


def test_build_takes_no_short_cut_override(genome_file, tmp_path, capsys):
    # the short/long cut is derived from the text length, so no option sets it
    with pytest.raises(SystemExit) as exc:
        main(["build", genome_file, "-o", str(tmp_path / "g.usi"), "--tau-min", "0.1", "--m-short", "3"])
    assert exc.value.code == 2
    assert "--m-short" in capsys.readouterr().err
    assert not (tmp_path / "g.usi").exists()


def test_query_json_output(genome_file, tmp_path, capsys):
    idx = str(tmp_path / "g.usi")
    main(["build", genome_file, "-o", idx, "--tau-min", "0.1"])
    capsys.readouterr()
    assert main(["query", idx, "--pattern", "AT", "--tau", "0.4", "--json"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line) == {"pattern": "AT", "position": 9, "probability": 0.5}


def test_list_pipeline(collection_file, tmp_path, capsys):
    idx = str(tmp_path / "c.usi")
    assert main(["build", collection_file, "-o", idx, "--tau-min", "0.1"]) == 0
    capsys.readouterr()
    assert main(["list", idx, "--pattern", "BF", "--tau", "0.1"]) == 0
    assert capsys.readouterr().out == "d1\n"
    assert main(["list", idx, "--pattern", "BF", "--tau", "0.1", "--json"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    obj = json.loads(line)
    assert obj["pattern"] == "BF" and obj["doc"] == "d1"
    assert obj["relevance"] >= 0.1


def test_approx_pipeline(genome_file, tmp_path, capsys):
    idx = str(tmp_path / "ga.usi")
    assert main(["build", genome_file, "-o", idx, "--tau-min", "0.05", "--epsilon", "0.01"]) == 0
    capsys.readouterr()
    assert main(["approx", idx, "--pattern", "AT", "--tau", "0.4"]) == 0
    assert "9" in capsys.readouterr().out.split()


def test_threshold_error_exit_code(genome_file, tmp_path, capsys):
    idx = str(tmp_path / "g.usi")
    main(["build", genome_file, "-o", idx, "--tau-min", "0.1"])
    assert main(["query", idx, "--pattern", "AT", "--tau", "0.02"]) == 3
    assert "below the index floor" in capsys.readouterr().err


def test_capacity_error_exit_code(genome_file, tmp_path, capsys):
    idx = str(tmp_path / "g.usi")
    assert main(["build", genome_file, "-o", idx, "--tau-min", "0.1", "--cap", "3"]) == 4
    assert "length cap" in capsys.readouterr().err


def test_wrong_kind_and_missing_files_exit_two(genome_file, collection_file, tmp_path, capsys):
    sub = str(tmp_path / "s.usi")
    coll = str(tmp_path / "c.usi")
    main(["build", genome_file, "-o", sub, "--tau-min", "0.1"])
    main(["build", collection_file, "-o", coll, "--tau-min", "0.1"])
    capsys.readouterr()
    assert main(["list", sub, "--pattern", "A", "--tau", "0.1"]) == 2
    assert main(["query", coll, "--pattern", "A", "--tau", "0.1"]) == 2
    assert main(["approx", sub, "--pattern", "A", "--tau", "0.1"]) == 2
    assert "--epsilon" in capsys.readouterr().err
    assert main(["query", str(tmp_path / "nope.usi"), "--pattern", "A", "--tau", "0.1"]) == 2


def test_nan_threshold_exits_two(genome_file, collection_file, tmp_path, capsys):
    sub = str(tmp_path / "s.usi")
    coll = str(tmp_path / "c.usi")
    main(["build", genome_file, "-o", sub, "--tau-min", "0.1", "--epsilon", "0.05"])
    main(["build", collection_file, "-o", coll, "--tau-min", "0.1"])
    capsys.readouterr()
    for command, path in (("query", sub), ("approx", sub), ("list", coll)):
        assert main([command, path, "--pattern", "A", "--tau", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "NaN" in err


@pytest.mark.parametrize("field, value", [("metric", "bogus"), ("tau_min", "nan"), ("epsilon", "0.0")])
def test_tampered_listing_manifest_exits_two(field, value, collection_file, tmp_path, capsys):
    path = tmp_path / "c.usi"
    main(["build", collection_file, "-o", str(path), "--tau-min", "0.1", "--metric", "max"])
    with zipfile.ZipFile(path) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    manifest = json.loads(entries["manifest.json"])
    manifest[field] = value
    entries["manifest.json"] = json.dumps(manifest).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in entries.items():
            zf.writestr(name, data)
    capsys.readouterr()
    assert main(["list", str(path), "--pattern", "BF", "--tau", "0.1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"manifest {field}" in err


@pytest.mark.parametrize(
    "damage",
    [
        "not a zip",
        "missing member",
        "manifest not json",
        "manifest not an object",
        "manifest tau_min a list",
        "manifest documents a string",
        "codes too short",
        "link value NaN",
        "cum NaN",
        "link origins reversed",
        "order swapped",
    ],
)
def test_bad_container_exits_two_with_one_line(damage, genome_file, tmp_path, capsys):
    path = tmp_path / "g.usi"
    main(["build", genome_file, "-o", str(path), "--tau-min", "0.1", "--epsilon", "0.05"])
    with zipfile.ZipFile(path) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    if damage == "not a zip":
        path.write_bytes(b"not a container")
    else:
        if damage == "missing member":
            del entries["cum.npy"]
        elif damage == "codes too short":
            buf = io.BytesIO()
            np.save(buf, np.arange(3, dtype=np.int64))
            entries["codes.npy"] = buf.getvalue()
        elif damage in ("link value NaN", "cum NaN"):
            # the probability that the first link or letter indexes in the table of probabilities
            member = "link_stored.npy" if damage == "link value NaN" else "cum.npy"
            probs = np.load(io.BytesIO(entries["probs.npy"]))
            probs[np.load(io.BytesIO(entries[member]))[0]] = np.nan
            buf = io.BytesIO()
            np.save(buf, probs)
            entries["probs.npy"] = buf.getvalue()
        elif damage == "link origins reversed":
            buf = io.BytesIO()
            np.save(buf, np.load(io.BytesIO(entries["link_origin.npy"]))[::-1])
            entries["link_origin.npy"] = buf.getvalue()
        elif damage == "order swapped":
            order = np.load(io.BytesIO(entries["order.npy"]))
            order[[0, 1]] = order[[1, 0]]
            buf = io.BytesIO()
            np.save(buf, order)
            entries["order.npy"] = buf.getvalue()
        elif damage in ("manifest tau_min a list", "manifest documents a string"):
            manifest = json.loads(entries["manifest.json"])
            manifest |= {"tau_min": [1]} if "tau_min" in damage else {"documents": "genome"}
            entries["manifest.json"] = json.dumps(manifest).encode()
        else:
            entries["manifest.json"] = b"{not json" if damage == "manifest not json" else b"[1]"
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in entries.items():
                zf.writestr(name, data)
    capsys.readouterr()
    for command in ("query", "approx"):
        assert main([command, str(path), "--pattern", "A", "--tau", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", ["listing", "substring"])
def test_a_manifest_field_no_save_writes_exits_two(kind, genome_file, collection_file, tmp_path, capsys):
    # resealed, so only the field itself is at fault
    path = str(tmp_path / "f.usi")
    if kind == "listing":
        main(["build", collection_file, "-o", path, "--tau-min", "0.1", "--metric", "or"])
        command, extra = "list", {"epsilon": "0.05"}
    else:
        main(["build", genome_file, "-o", path, "--tau-min", "0.1"])
        command, extra = "query", {"m_short": 3}  # a field of format 7
    with zipfile.ZipFile(path) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    manifest = json.loads(entries["manifest.json"]) | extra
    members = {name: container._sha256(data) for name, data in entries.items() if name != "manifest.json"}
    manifest["digests"] = container._digests(manifest, members)
    entries["manifest.json"] = json.dumps(manifest).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in entries.items():
            zf.writestr(name, data)
    capsys.readouterr()
    assert main([command, path, "--pattern", "A", "--tau", "0.1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert "manifest" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ust"
    bad.write_text("ustr x\npos a\nend\n")
    idx = str(tmp_path / "x.usi")
    assert main(["build", str(bad), "-o", idx, "--tau-min", "0.1"]) == 2
    assert "bad.ust:2" in capsys.readouterr().err


def test_verify_file_mode(genome_file, collection_file, capsys):
    assert main(["verify", genome_file, "--tau-min", "0.1"]) == 0
    assert "consistent" in capsys.readouterr().out
    assert main(["verify", collection_file, "--tau-min", "0.1"]) == 0
    assert "consistent" in capsys.readouterr().out


def test_verify_seeded_suite(capsys):
    assert main(["verify", "--count", "3", "--seed", "1"]) == 0
    assert "3 seeded instances" in capsys.readouterr().out


def test_verify_reports_mismatches(genome_file, capsys, monkeypatch):
    monkeypatch.setattr("ustrindex.cli.oracle_search", lambda u, p, tau: {999})
    assert main(["verify", genome_file, "--tau-min", "0.1"]) == 5
    assert "mismatch" in capsys.readouterr().out



def _codes(text: str) -> list[int]:
    """The exit codes a sentence lists: each digit that a word follows."""
    return sorted(int(c) for c in re.findall(r"\b(\d) [a-z]", text))


def test_exit_codes_agree_between_readme_help_and_main(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = re.search(r"^Exit codes: (.*?)\n\n", readme, re.S | re.M)
    assert documented is not None
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    shown = capsys.readouterr().out
    assert "exit codes:" in shown
    returned = {int(c) for c in re.findall(r"^\s+return (\d+)$", inspect.getsource(cli), re.M)}
    assert _codes(documented.group(1)) == _codes(shown[shown.index("exit codes:") :]) == sorted(returned)


def test_a_wrongly_typed_string_exits_two(tmp_path, capsys, monkeypatch):
    """A probability that is not a number reaches ``build`` from Python callers; the CLI maps its ValueError to 2."""
    monkeypatch.setattr(cli, "parse_ust_file", lambda path: [UncertainString("x", ({"a": "1.0"},))])
    assert main(["build", "x.ust", "--tau-min", "0.5", "-o", str(tmp_path / "x.usi")]) == 2
    assert "is not a real number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["gen", "{corpus}", "--docs", "0"], "docs must be at least 1"),
        (["gen", "{corpus}", "--docs", "-2", "-o", "{out}"], "docs must be at least 1"),
        (["build", "{genome}", "-o", "{out}", "--tau-min", "0.1", "--cap", "-5"], "length cap -5 is negative"),
        (["verify", "--count", "0"], "--count must be at least 1, not 0"),
        (["verify", "--count", "-1"], "--count must be at least 1, not -1"),
    ],
    ids=["gen no documents", "gen negative documents", "build negative cap", "verify no instance", "verify negative"],
)
def test_a_usage_error_that_once_ended_silently_exits_two(argv, what, corpus_file, genome_file, tmp_path, capsys):
    # each once exited 0 (one document written, or nothing verified) or 4 (a cap no text can meet)
    out_path = tmp_path / "out"
    argv = [a.format(corpus=corpus_file, genome=genome_file, out=out_path) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {what}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["substring", "links", "listing"])
def test_info_prints_the_manifest_kind_and_member_bytes_and_reads_no_member(
    kind, genome_file, collection_file, tmp_path, capsys, monkeypatch
):
    path = str(tmp_path / "i.usi")
    extra = {"substring": [], "links": ["--epsilon", "0.05"], "listing": ["--metric", "or"]}[kind]
    main(["build", collection_file if kind == "listing" else genome_file, "-o", path, "--tau-min", "0.1", *extra])
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        stored = {info.filename: info.compress_size for info in zf.infolist()}
    capsys.readouterr()

    read = []
    real_read = zipfile.ZipFile.read
    monkeypatch.setattr(zipfile.ZipFile, "read", lambda zf, name, *a: read.append(name) or real_read(zf, name, *a))
    for name in ("parse_ust", "_sha256", "_read_array"):
        monkeypatch.setattr(container, name, lambda *a, **k: pytest.fail("info read a member, a digest or the source"))
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and read == ["manifest.json"]

    info = json.loads(out)
    symbols = sum(n for _, n in manifest["documents"])
    assert {k: v for k, v in info.items() if k not in ("kind", "symbols", "members", "total")} == {
        k: v for k, v in manifest.items() if k != "digests"
    }
    assert info["kind"] == ("listing" if kind == "listing" else "substring") and info["symbols"] == symbols
    assert {name: m["bytes"] for name, m in info["members"].items()} == stored
    assert sum(m["bytes"] for m in info["members"].values()) == info["total"]["bytes"] == sum(stored.values())
    for m in [*info["members"].values(), info["total"]]:
        assert m["bytes_per_symbol"] == m["bytes"] / symbols
    assert {"probs.npy", "cum.npy"} <= info["members"].keys()


@pytest.mark.parametrize("what", ["not a zip", "version 10", "missing file", "no manifest", "member missing"])
def test_info_on_anything_but_a_format_11_container_exits_two(what, genome_file, tmp_path, capsys):
    path = tmp_path / "x.usi"
    main(["build", genome_file, "-o", str(path), "--tau-min", "0.1"])
    with zipfile.ZipFile(path) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    if what == "not a zip":
        path.write_bytes(b"not a container")
    elif what == "missing file":
        path.unlink()
    else:
        if what == "version 10":
            entries["manifest.json"] = json.dumps(json.loads(entries["manifest.json"]) | {"format_version": 10}).encode()
        else:
            del entries["manifest.json" if what == "no manifest" else "cum.npy"]
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in entries.items():
                zf.writestr(name, data)
    capsys.readouterr()
    assert main(["info", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert what != "version 10" or "unsupported container version 10" in err
    assert what != "member missing" or "differ from those the digests name: ['cum.npy']" in err
