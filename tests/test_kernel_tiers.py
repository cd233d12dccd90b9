"""Kernel tier selection, fallback, and capability reporting.

Covers the dispatcher in :mod:`repro.kernels`: precedence of
``set_tier`` (the CLI's ``--kernels``) over ``SIEF_KERNELS`` over
``auto``, hard errors for explicitly-requested unavailable tiers, the
forced pure-numpy fallback when no accelerated backend exists (checked
in a subprocess with the C compiler opted out), the on-demand compile
cache of the C backend, and the ``sief
kernels`` capability report surfaced into the benchmark environment
stamp.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import kernels
from repro.cli import main
from repro.exceptions import KernelTierError
from repro.kernels import cext_backend

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def _clean_tier_state(monkeypatch):
    """Isolate selection state: env cleared, caches dropped on both sides."""
    monkeypatch.delenv("SIEF_KERNELS", raising=False)
    kernels.set_tier(None)
    kernels._resolution.clear()
    yield
    kernels.set_tier(None)
    kernels._resolution.clear()


# ---------------------------------------------------------------------------
# selection precedence
# ---------------------------------------------------------------------------


def test_default_request_is_auto():
    assert kernels.requested_tier() == "auto"


def test_env_var_selects_tier(monkeypatch):
    monkeypatch.setenv("SIEF_KERNELS", "numpy")
    assert kernels.requested_tier() == "numpy"
    assert kernels.effective_tier() == "numpy"
    tier, fn = kernels.resolve("bfs")
    assert tier == "numpy"
    assert fn is None


def test_env_var_is_case_and_space_insensitive(monkeypatch):
    monkeypatch.setenv("SIEF_KERNELS", "  NumPy ")
    assert kernels.requested_tier() == "numpy"


def test_invalid_env_var_raises(monkeypatch):
    monkeypatch.setenv("SIEF_KERNELS", "fortran")
    with pytest.raises(KernelTierError, match="fortran"):
        kernels.requested_tier()


def test_set_tier_beats_env_var(monkeypatch):
    monkeypatch.setenv("SIEF_KERNELS", "auto")
    kernels.set_tier("numpy")
    assert kernels.requested_tier() == "numpy"
    # and it exports the env var so spawned workers inherit the choice
    assert os.environ["SIEF_KERNELS"] == "numpy"


def test_set_tier_none_reverts_to_env(monkeypatch):
    kernels.set_tier("numpy")
    kernels.set_tier(None)
    monkeypatch.setenv("SIEF_KERNELS", "numpy")
    assert kernels.requested_tier() == "numpy"
    monkeypatch.delenv("SIEF_KERNELS")
    assert kernels.requested_tier() == "auto"


def test_set_tier_rejects_unknown_tier():
    with pytest.raises(KernelTierError, match="cython"):
        kernels.set_tier("cython")


def test_retired_jit_tier_is_unknown(monkeypatch):
    # The name of the retired JIT tier, spelled so the source never
    # mentions the package.
    monkeypatch.setenv("SIEF_KERNELS", "nu" + "mba")
    with pytest.raises(KernelTierError, match="auto/cext/numpy"):
        kernels.requested_tier()


def test_use_tier_restores_prior_selection(monkeypatch):
    monkeypatch.setenv("SIEF_KERNELS", "auto")
    kernels.set_tier("numpy")
    with kernels.use_tier("auto"):
        assert kernels.requested_tier() == "auto"
    assert kernels.requested_tier() == "numpy"
    assert os.environ["SIEF_KERNELS"] == "numpy"


def test_use_tier_restores_unset_env(monkeypatch):
    monkeypatch.delenv("SIEF_KERNELS", raising=False)
    with kernels.use_tier("numpy"):
        assert os.environ["SIEF_KERNELS"] == "numpy"
    assert "SIEF_KERNELS" not in os.environ


# ---------------------------------------------------------------------------
# hard errors vs silent auto fallback
# ---------------------------------------------------------------------------


def test_explicit_unavailable_tier_raises(tmp_path, monkeypatch):
    # A compiler that cannot run makes the C tier unavailable on any
    # host; asking for it explicitly must then fail loudly.
    monkeypatch.setenv("SIEF_KERNELS_CC", str(tmp_path / "missing-cc"))
    monkeypatch.setenv("SIEF_KERNELS_CACHE", str(tmp_path / "cache"))
    cext_backend.reset()
    try:
        info = cext_backend.probe()
        assert info["available"] is False
        assert info["compiler"] == str(tmp_path / "missing-cc")
        kernels.set_tier("cext")
        with pytest.raises(KernelTierError, match="unavailable"):
            kernels.resolve("bfs")
    finally:
        cext_backend.reset()


def test_auto_never_raises_and_prefers_accelerated():
    kernels.set_tier("auto")
    tier, fn = kernels.resolve("relabel")
    if cext_backend.probe().get("available"):
        assert tier == "cext"
        assert callable(fn)
    else:
        assert tier == "numpy"
        assert fn is None


def test_resolution_is_consistent_across_kernels():
    # One tier serves the whole kernel set, except for kernels the
    # selected backend doesn't implement, which fall through to the numpy reference per kernel.
    tiers = {kernels.resolve(name)[0] for name in kernels.KERNEL_NAMES}
    assert tiers <= {kernels.effective_tier(), "numpy"}


def test_forced_fallback_without_compiler():
    """Subprocess with the C compiler opted out.

    This is the clean-fallback acceptance check: with no accelerated
    backend reachable, ``auto`` must resolve to pure numpy without
    raising.
    """
    code = textwrap.dedent(
        """
        from repro import kernels

        assert kernels.requested_tier() == "auto"
        assert kernels.effective_tier() == "numpy"
        for name in kernels.KERNEL_NAMES:
            tier, fn = kernels.resolve(name)
            assert tier == "numpy" and fn is None, (name, tier)
        report = kernels.capability_report()
        assert report["effective"] == "numpy"
        assert report["backends"]["cext"]["available"] is False
        print("fallback-ok")
        """
    )
    env = dict(os.environ)
    env.pop("SIEF_KERNELS", None)
    env["SIEF_KERNELS_CC"] = "none"  # opt out of the C backend
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert "fallback-ok" in out.stdout


def test_cc_env_none_disables_cext(monkeypatch):
    monkeypatch.setenv("SIEF_KERNELS_CC", "none")
    cext_backend.reset()
    try:
        info = cext_backend.probe()
        assert info["available"] is False
        assert "compiler" in info["error"] or info["compiler"] is None
        kernels.set_tier("cext")
        with pytest.raises(KernelTierError, match="unavailable"):
            kernels.resolve("bfs")
    finally:
        cext_backend.reset()


# ---------------------------------------------------------------------------
# compile cache (cext)
# ---------------------------------------------------------------------------


def test_cext_compile_cache_round_trip(tmp_path, monkeypatch):
    if not cext_backend.probe().get("available"):
        pytest.skip("no working C compiler on this host")
    monkeypatch.setenv("SIEF_KERNELS_CACHE", str(tmp_path))
    cext_backend.reset()
    try:
        first = cext_backend.probe()
        assert first["available"] is True
        assert first["compile_cached"] is False  # fresh dir: really compiled
        assert first["library"].startswith(str(tmp_path))
        cext_backend.reset()
        second = cext_backend.probe()
        assert second["available"] is True
        assert second["compile_cached"] is True  # same source hash: reused
        assert second["library"] == first["library"]
    finally:
        cext_backend.reset()


# ---------------------------------------------------------------------------
# capability report and CLI
# ---------------------------------------------------------------------------


def test_capability_report_shape():
    report = kernels.capability_report()
    assert report["requested"] == "auto"
    assert report["effective"] in kernels.TIERS
    assert set(report["kernels"]) == set(kernels.KERNEL_NAMES)
    assert set(report["backends"]) == set(kernels.TIERS)
    assert report["backends"]["numpy"]["available"] is True
    assert "available" in report["backends"]["cext"]


def test_capability_report_with_invalid_env(monkeypatch):
    monkeypatch.setenv("SIEF_KERNELS", "gpu")
    report = kernels.capability_report()
    assert report["effective"] is None
    assert "gpu" in report["error"]


def test_cli_kernels_subcommand(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "requested" in out
    assert "effective" in out


def test_cli_kernels_json(capsys):
    assert main(["kernels", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["requested"] == "auto"
    assert set(report["kernels"]) == set(kernels.KERNEL_NAMES)


def test_cli_kernels_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("SIEF_KERNELS", "auto")
    assert main(["--kernels", "numpy", "kernels", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["requested"] == "numpy"
    assert report["effective"] == "numpy"


def test_cli_rejects_unknown_kernel_tier():
    with pytest.raises(SystemExit):
        main(["--kernels", "gpu", "kernels"])


def test_env_metadata_records_kernel_tier():
    from repro.bench.history import env_metadata

    with kernels.use_tier("numpy"):
        meta = env_metadata()
    assert meta["kernel_tier"] == "numpy"
