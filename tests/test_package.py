"""Tests for the package's public surface."""

import importlib

import fracstab

MODULES = [
    importlib.import_module(f"fracstab.{name}")
    for name in ("chareq", "curve", "classify", "roots", "simulate", "errors")
]


def test_all_is_the_modules_all():
    # one list per module; the package adds only __version__
    names = [name for m in MODULES for name in m.__all__]
    assert fracstab.__all__ == ["__version__", *names]
    assert len(set(fracstab.__all__)) == len(fracstab.__all__)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(fracstab, name) is getattr(m, name), (m.__name__, name)


def test_star_import_binds_every_name():
    ns = {}
    exec("from fracstab import *", ns)
    for name in fracstab.__all__:
        assert ns[name] is getattr(fracstab, name), name
