"""Golden outputs of fixed-seed CLI runs.

Each case pins the sha256 of the exit code, the stdout text and the
bytes written with ``--out`` (and ``--dot``). A refactor that keeps the
search order and the report format leaves every digest unchanged; a
digest that moves means the command's observable output moved.

After a deliberate output change, each failure message gives the new
digest to record.
"""

import contextlib
import hashlib
import io
import random

import pytest

from gradedpdl import audit
from gradedpdl.audit import SamplerConfig, sample_model
from gradedpdl.cli import main
from gradedpdl.modelio import save_model

CASES = {
    "audit-n2": ["audit", "--n", "2", "--samples", "12", "--seed", "3", "--out", "{out}"],
    "audit-n3": ["audit", "--n", "3", "--samples", "8", "--seed", "4", "--out", "{out}"],
    "audit-n5-no-rules": [
        "audit", "--n", "5", "--states", "2", "--samples", "10", "--seed", "5",
        "--no-rules", "--out", "{out}",
    ],
    "audit-inter-box-printed": [
        "audit", "--n", "3", "--samples", "6", "--seed", "6", "--inter-box", "printed",
        "--out", "{out}",
    ],
    "valid-holds": ["valid", "[a + b]p -> [a]p", "--samples", "40", "--seed", "7"],
    "valid-refuted": ["valid", "p | ~p", "--samples", "40", "--seed", "8"],
    "valid-unsampled-program": ["valid", "<x>r -> r", "--samples", "40", "--seed", "9"],
    "equiv-difference": [
        "equiv", "<a>p", "~[a]~p", "--n", "2", "--samples", "200", "--seed", "1",
        "--out", "{out}",
    ],
    "equiv-same": [
        "equiv", "[?(p)]q", "p -> q", "--samples", "40", "--seed", "2", "--out", "{out}",
    ],
    "filtrate-5-states": [
        "filtrate", "{model}", "[a]q & <a>q", "--force-states",
        "--out", "{out}", "--dot", "{dot}",
    ],
}

GOLDEN = {
    "audit-n2": "c0aff517eb365aee458160f753a1322988ebb832f096cecf5b1fa31ee96d4692",  # exit 1
    "audit-n3": "38ca85711f4f4d45c821bd2f6ab0e4aca82a40123124d004ddca4bf9a61a272b",  # exit 1
    "audit-n5-no-rules": "6caeb2512967711025b5b8606bd3893652c35fa4755d62b4e76100a679c2d407",  # exit 1
    "audit-inter-box-printed": "d4738a1560607e482cad4c4a49c215c320be9d6af192936a0c63f4ff6344969a",  # exit 1
    "valid-holds": "db8109dd0a8a8dbeb77b7ccf14069ffcc651d5ef9ba0f14384acedf8bc7094d5",  # exit 0
    "valid-refuted": "640e3a089d252f6f737c8b6fe2917fe21e67b3bd7dcc7326ed8c315b5c3557ed",  # exit 1
    "valid-unsampled-program": "cb97f84ae8e24c4575e6007bc77076b98fb45565375112cd29fd4dbaa99a7df7",  # exit 1
    "equiv-difference": "2b30915430bf52a2d0ba897d21df00c8f5ae7ac3294d9bd1ec92427c2ef509bd",  # exit 1
    "equiv-same": "4d9ef9828c9c016739a787e101323e90bd4990451922d084c136c99ed500738b",  # exit 0
    "filtrate-5-states": "d3989a7fe4d25be3ff29316c4f9142441e68658b6556bf1b24a38a43bbf40f1e",  # exit 0
}


def _five_state_model(path, monkeypatch):
    """A 5-state model drawn from a fixed seed, at the entry density 0.3
    the digest was recorded with."""
    monkeypatch.setattr(audit, "DENSITY", 0.3)
    cfg = SamplerConfig(n=3, max_states=5, allow_large=True)
    rng = random.Random(2024)
    while True:
        model = sample_model(cfg, rng)
        if model.space.size == 5:
            save_model(model, path)
            return


def _digest(label, tmp_path, monkeypatch):
    paths = {
        "out": tmp_path / "out.json",
        "dot": tmp_path / "classes.dot",
        "model": tmp_path / "model.json",
    }
    if label.startswith("filtrate"):
        _five_state_model(paths["model"], monkeypatch)
    argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in CASES[label]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    h.update(stdout.getvalue().encode("utf-8"))
    for key in ("out", "dot"):
        h.update(f"\n--{key}\n".encode())
        if paths[key].exists():
            h.update(paths[key].read_bytes())
    return code, h.hexdigest()


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_output(label, tmp_path, monkeypatch):
    code, digest = _digest(label, tmp_path, monkeypatch)
    assert digest == GOLDEN[label], f"{label}: exit {code}, sha256 {digest}"
