import qsmc


def test_all_names_resolve_once():
    assert len(qsmc.__all__) == len(set(qsmc.__all__))
    missing = [name for name in qsmc.__all__ if not hasattr(qsmc, name)]
    assert missing == []
