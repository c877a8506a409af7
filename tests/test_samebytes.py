import os
import shutil
import sys

from stablecut import report

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "tools"))
import samebytes  # noqa: E402


def test_samebytes_finds_exactly_an_edited_schema_id(tmp_path):
    # a slice of the corpus: one weighted graph through every command, and
    # every documented error exit
    groups = samebytes.corpus()
    commands = groups["tri"] + groups["errors"]
    a = samebytes.run_tree(SRC, str(tmp_path / "a"), commands)
    b = samebytes.run_tree(SRC, str(tmp_path / "b"), commands)
    assert samebytes.differences(commands, a, b) == []
    assert [r["exit"] for r in a["results"]].count(0) == 5
    assert sorted(a["files"]) == ["tri.all.json"]

    edited = tmp_path / "edited" / "src"
    shutil.copytree(SRC, edited, ignore=shutil.ignore_patterns("__pycache__"))
    source = edited / "stablecut" / "report.py"
    old = f'SCHEMA_ID = "{report.SCHEMA_ID}"'
    assert source.read_text().count(old) == 1
    source.write_text(source.read_text().replace(old, 'SCHEMA_ID = "edited"'))
    c = samebytes.run_tree(str(edited), str(tmp_path / "c"), commands)
    diffs = samebytes.differences(commands, a, c)
    assert [d.split(": line ")[0] for d in diffs] == [
        "stablecut solve --solver greedy --no-timing tri.graph: stdout",
        "stablecut solve --solver oracle --no-timing tri.graph: stdout",
        "stablecut solve --solver dual --require-certified --no-timing --max-iter 60 k3.graph: "
        "stdout",
        "tri.all.json",
    ]
    old_line, new_line = f'  "schema": "{report.SCHEMA_ID}",', '  "schema": "edited",'
    assert all(d.endswith(f"{old_line!r} != {new_line!r}") for d in diffs)
    # each run report differs in its schema line and nowhere else
    for r in a["results"]:
        r["stdout"] = r["stdout"].replace(old_line, new_line)
    a["files"]["tri.all.json"] = a["files"]["tri.all.json"].replace(
        old_line.encode(), new_line.encode())
    assert samebytes.differences(commands, a, c) == []
