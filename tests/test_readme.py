"""The README's Python examples run as written, and its container tables name the members and manifest fields."""

from __future__ import annotations

import json
import re
import zipfile
from pathlib import Path

from ustrindex import build_container, save_container

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 3
    namespace: dict[str, object] = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _documented_members() -> list[str]:
    """The names in the first column of the README's ``.usi`` member table."""
    table = re.search(r"^\| Member \| dtype \|.*?\n\n", README.read_text(encoding="utf-8"), re.S | re.M)
    assert table is not None
    rows = table.group(0).strip().splitlines()[2:]
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_readme_member_table_names_every_saved_member_and_nothing_else(genome, collection, tmp_path):
    # array members are named without their .npy suffix, the source member with its own
    documented = {name if "." in name else f"{name}.npy" for name in _documented_members()}
    containers = [build_container([genome], 0.1, epsilon=0.05), build_container(list(collection.docs), 0.1, metric="or")]
    saved = set()
    for k, container in enumerate(containers):
        path = str(tmp_path / f"{k}.usi")
        save_container(container, path)
        with zipfile.ZipFile(path) as zf:
            saved |= set(zf.namelist()) - {"manifest.json"}
    assert saved
    assert sorted(saved - documented) == [], "members missing from the README table"
    assert sorted(documented - saved) == [], "the README table names members no container holds"


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
