"""chorkit: write global protocols, run them, compile them to process
networks, repair the ones that will not compile, and check the semantic
correspondences between all of the above by bounded exploration."""

__all__ = ["amendment", "cc", "projection", "sp", "syntax", "verifier"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # Submodules load on first use (PEP 562), so a command imports only the
    # modules it runs: `chorkit check` never loads the checkers.
    if name in __all__:
        __import__(f"{__name__}.{name}")  # binds the submodule in this namespace
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
