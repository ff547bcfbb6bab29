"""The package namespace: every exported name exists."""

import paradoxlab


def test_every_name_in_all_resolves():
    missing = [name for name in paradoxlab.__all__ if not hasattr(paradoxlab, name)]
    assert missing == []


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from paradoxlab import *", namespace)
    assert set(paradoxlab.__all__) <= set(namespace)
