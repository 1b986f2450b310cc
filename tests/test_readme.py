"""The README's Python examples run as written; its container tables give the members, dtypes and manifest fields."""

from __future__ import annotations

import io
import json
import re
import zipfile
from pathlib import Path

import numpy as np

from ustrindex import UncertainString, build_container, save_container

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 3
    namespace: dict[str, object] = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _documented_members() -> dict[str, set[str]]:
    """Each member named in the first column of the README's ``.usi`` member table, with the dtypes of its second.

    Array members are named without their .npy suffix, the source member with
    its own; a dtype column without a backticked name gives no dtype.
    """
    table = re.search(r"^\| Member \| dtype \|.*?\n\n", README.read_text(encoding="utf-8"), re.S | re.M)
    assert table is not None
    rows = [row.split("|") for row in table.group(0).strip().splitlines()[2:]]
    return {
        name if "." in name else f"{name}.npy": set(re.findall(r"`([^`]+)`", cells[2]))
        for cells in rows
        for name in re.findall(r"`([^`]+)`", cells[1])
    }


def _saved_members(genome, collection, tmp_path) -> dict[str, set[str]]:
    """Each member some container kind saves, with the dtypes its .npy headers hold (none for the source)."""
    greek = UncertainString("greek", ({"α": 0.6, "β": 0.4}, {"γ": 1.0}, {"α": 0.5, "δ": 0.5}))
    containers = [
        build_container([genome], 0.1, epsilon=0.05),
        build_container(list(collection.docs), 0.1, metric="or"),
        build_container([greek], 0.1),
    ]
    saved: dict[str, set[str]] = {}
    for k, container in enumerate(containers):
        path = str(tmp_path / f"{k}.usi")
        save_container(container, path)
        with zipfile.ZipFile(path) as zf:
            for name in set(zf.namelist()) - {"manifest.json"}:
                dtypes = saved.setdefault(name, set())
                if name.endswith(".npy"):
                    dtypes.add(str(np.load(io.BytesIO(zf.read(name)), allow_pickle=False).dtype))  # the header's
    return saved


def test_readme_member_table_names_every_saved_member_and_nothing_else(genome, collection, tmp_path):
    documented, saved = _documented_members(), _saved_members(genome, collection, tmp_path)
    assert saved
    assert sorted(saved.keys() - documented.keys()) == [], "members missing from the README table"
    assert sorted(documented.keys() - saved.keys()) == [], "the README table names members no container holds"


def test_readme_member_table_gives_each_saved_member_s_dtype(genome, collection, tmp_path):
    documented, saved = _documented_members(), _saved_members(genome, collection, tmp_path)
    wrong = {name: sorted(dtypes - documented[name]) for name, dtypes in saved.items() if dtypes - documented[name]}
    assert wrong == {}, "members saved in a dtype the README table does not give"
    # ASCII and Greek texts store their codes in the two narrowest dtypes the table gives
    assert {"uint8", "uint16"} <= saved["codes.npy"]


def test_readme_manifest_table_names_every_manifest_field(genome, collection, tmp_path):
    table = re.search(r"^\| Field \| JSON type \|.*?\n\n", README.read_text(encoding="utf-8"), re.S | re.M)
    assert table is not None
    rows = table.group(0).strip().splitlines()[2:]
    documented = {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
    for k, container in enumerate([build_container([genome], 0.1), build_container(list(collection.docs), 0.1)]):
        path = str(tmp_path / f"{k}.usi")
        save_container(container, path)
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            members = set(zf.namelist()) - {"manifest.json"}
        assert set(manifest) == documented
        assert set(manifest["digests"]) == members | {"manifest"}
