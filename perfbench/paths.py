"""Where the checkout is, and the environment that runs its toolkit."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env():
    """The caller's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so a child interpreter imports this checkout's toolkit."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
