"""Pass management: passes, the pass manager and textual pipelines."""

from .pass_manager import FunctionPass, ModulePass, Pass, PassManager

__all__ = ["FunctionPass", "ModulePass", "Pass", "PassManager"]
