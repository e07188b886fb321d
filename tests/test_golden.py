"""Byte-for-byte guard on what the recipes write.

Each ``scripts/configs/*.cfg`` runs through the CLI with a fixed seed and
``--dump-state``, and so does each recipe's default grid (a config holding
only ``experiment`` and ``normalize``, once with ``normalize`` true and once
false). The sha256 of every CSV, counts file and state dump, and of the
``swapsim recipes`` listing, must equal the digests committed in
``golden_digests.json``. The ``meta.json`` sidecars are left out: they
carry the wall time.

Only a change that is meant to alter outputs may rewrite the digests:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from swapsim.cli import main
from swapsim.recipes import RECIPES

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SEED = "7"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _configs(work: Path) -> list:
    """The bundled configs, then one default-grid config per recipe and flag."""
    configs = list(CONFIGS)
    for name in RECIPES:
        for normalize in ("true", "false"):
            cfg = work / f"default_{name}_normalize_{normalize}.cfg"
            cfg.write_text(f"experiment = {name}\nnormalize = {normalize}\n")
            configs.append(cfg)
    return configs


def output_digests(work: Path) -> dict:
    """Digest of every output file, keyed by ``<config stem>/<file name>``."""
    digests = {}
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        assert main(["recipes"]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        for cfg in _configs(work):
            out = work / cfg.stem
            dump = work / f"{cfg.stem}.state.json"
            code = main(["run", str(cfg), "--out", str(out), "--seed", SEED,
                         "--dump-state", str(dump)])
            assert code == 0, cfg.name
            for path in sorted(out.iterdir()):
                if not path.name.endswith(".meta.json"):
                    digests[f"{cfg.stem}/{path.name}"] = _sha256(path.read_bytes())
            digests[f"{cfg.stem}/state.json"] = _sha256(dump.read_bytes())
    digests["recipes.txt"] = _sha256(listing.getvalue().encode())
    return digests


def test_bundled_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = output_digests(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        json.dump(output_digests(Path(work)), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
