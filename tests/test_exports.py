import flowssm


def test_every_public_name_resolves():
    """Each lazy export names an attribute its module really defines."""
    for name in flowssm.__all__:
        assert getattr(flowssm, name) is not None, name
