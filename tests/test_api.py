import divisorlab


def test_public_names_resolve_once():
    names = divisorlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(divisorlab, name), name
