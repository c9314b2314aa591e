"""Data-driven finite-horizon behaviors, implementability, and controller synthesis.

The package top level binds no names: import the modules, as in
``from canonctrl import implementability, signal``.  The version lives in
``pyproject.toml``.
"""
