from .extraction import run_checkpointed

__all__ = ["run_checkpointed"]
