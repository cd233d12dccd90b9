"""Host/toolchain fingerprint stamped into every benchmark report.

:func:`env_metadata` is the environment stamp of the end-to-end
benchmark (``benchmarks/e2e/run.py``) and of the paper-table benches
(``benchmarks/conftest.py``).  Timing numbers without it are not
comparable: it names the interpreter, numpy, platform, CPU count, host,
git SHA and kernel tier a number was measured with.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
from pathlib import Path
from typing import Dict, Optional

# Canonical implementation lives in repro.obs.events (the serving layer
# exports it as a /metrics gauge and must not depend on repro.bench);
# re-exported here because every bench sidecar imports it from this module.
from repro.obs.events import peak_rss_bytes  # noqa: F401


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_metadata() -> Dict[str, object]:
    """Host/toolchain fingerprint for one benchmark result.

    Everything that moves timing numbers between machines: interpreter
    and numpy versions, platform triple, CPU count, hostname — plus the
    git SHA (when available) so a report names the code it measured,
    the effective kernel tier (``numpy``/``cext``) so a tier switch can
    never masquerade as a regression or an improvement, and the
    process's peak RSS at the time of the call.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        from repro.kernels import effective_tier

        kernel_tier = effective_tier()
    except Exception:  # pragma: no cover - misconfigured explicit tier
        kernel_tier = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "hostname": socket.gethostname(),
        "git_sha": _git_sha(),
        "kernel_tier": kernel_tier,
        "peak_rss_bytes": peak_rss_bytes(),
    }
