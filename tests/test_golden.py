"""Golden digests of the README commands' outputs.

Each README command runs in-process through ``cli.main`` into its own
directory, named after the subcommand (``dimension/``) and numbered
from its second line on (``dimension2/``); a ``run/<file>`` argument
reads the file an earlier command wrote.  The sha256 of every output
except ``manifest.json`` (which records the ``--out`` path) must match
``golden_digests.json``.  The
table records the numpy version, the BLAS and numpy's CPU dispatch
features it was made with; on an install where one of them differs the
test skips and names it, since those can move the last bits of a float.

A change that moves output bytes on purpose writes the table again with
``PYTHONPATH=src python tests/test_golden.py`` and states in its change
log which files moved.
"""

import json
import shlex
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from biflab import io as bio
from biflab.cli import main

from test_cli import readme_commands

TABLE = Path(__file__).resolve().parent / "golden_digests.json"


def library_facts():
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_dispatch": sorted(config["SIMD Extensions"]["found"])}


def run_readme(root):
    """Run every README command into root/<command>[<k>]/; return
    {"<command>[<k>]/<file>": sha256} over every output but the
    manifests."""
    written = {}
    digests = {}
    lines = Counter()
    for line in readme_commands():
        tokens = shlex.split(line)[1:]
        lines[tokens[0]] += 1
        name = tokens[0] + (str(lines[tokens[0]]) if lines[tokens[0]] > 1 else "")
        out = Path(root) / name
        argv = []
        for tok in tokens:
            if tok == "run/":
                tok = str(out)
            elif tok.startswith("run/"):
                tok = str(written[tok[len("run/"):]])
            argv.append(tok)
        assert main(argv) == 0, line
        for path in sorted(out.iterdir()):
            written[path.name] = path
            if path.name != "manifest.json":
                digests[f"{name}/{path.name}"] = bio.sha256_file(path)
    return digests


def test_readme_outputs_match_the_table(tmp_path):
    table = json.loads(TABLE.read_text())
    facts = library_facts()
    moved_facts = [f"{k}: table {table['facts'][k]!r}, here {v!r}"
                   for k, v in facts.items() if table["facts"].get(k) != v]
    if moved_facts:
        pytest.skip("golden table made on another install: " + "; ".join(moved_facts))
    digests = run_readme(tmp_path)
    expected = table["digests"]
    moved = sorted(k for k in expected.keys() | digests.keys()
                   if expected.get(k) != digests.get(k))
    assert not moved, "outputs that moved: " + ", ".join(moved)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        doc = {"facts": library_facts(), "digests": run_readme(root)}
    TABLE.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
