"""Worker-environment plumbing.

Ray tasks deserialize our closures by importing ``ulp_ray`` by name; in
local mode workers inherit the *driver's cwd* but not its ``sys.path``
edits, so a driver that imported this package from a non-cwd location
(e.g. ``sys.path.insert(0, "/root/repo")`` from elsewhere) would strand
workers with ``ModuleNotFoundError``. ``remote_env()`` pins the package
root onto every stage's worker env via ``runtime_env.env_vars.PYTHONPATH``
— identical across stages, so all stages share one worker pool.
``remote(obj, **options)`` is the one way a stage makes a plain Ray task
or actor: it applies ``remote_env()`` and the call's options to a
``ray.remote`` wrapper made once per process.
"""

from __future__ import annotations

import functools
import os

__all__ = ["remote", "remote_env", "package_root"]


def package_root() -> str:
    """Directory containing the ``ulp_ray`` package (the repo root)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def remote_env() -> dict:
    """kwargs to splat into ``map_batches``/``ray.remote`` so workers can
    import ``ulp_ray`` regardless of the driver's cwd.

    Returns ``{}`` when workers will already resolve the package — driver
    cwd == package root (workers inherit cwd) or PYTHONPATH already carries
    it — because a per-stage ``runtime_env`` forces Ray to start dedicated
    worker processes per stage instead of reusing the default pool, a
    measurable fixed cost per execution."""
    root = package_root()
    existing = os.environ.get("PYTHONPATH", "")
    if os.path.abspath(os.getcwd()) == root or root in existing.split(":"):
        return {}
    pp = f"{root}:{existing}" if existing else root
    return {"runtime_env": {"env_vars": {"PYTHONPATH": pp}}}


@functools.cache
def _wrapped(obj):
    import ray

    return ray.remote(obj)


def remote(obj, **options):
    """``ray.remote(obj).options(**options, **remote_env())`` for a function
    or class ``obj``, with the ``ray.remote`` wrapper made once per process
    and kept for it. Ray pickles and exports a wrapper to the session on
    its first call in that session, and again after a new ``ray.init``; a
    wrapper made per call would pay that export, and the worker a fresh
    function load, every time. ``options`` (retries, resources) and the
    worker env are per call, so they are never cached."""
    return _wrapped(obj).options(**options, **remote_env())
