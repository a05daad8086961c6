import nsp


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from nsp import *", namespace)
    assert [name for name in nsp.__all__ if name not in namespace] == []
    assert len(set(nsp.__all__)) == len(nsp.__all__)
