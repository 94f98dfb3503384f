"""Package exports resolved on first use (PEP 562): a package's
``__getattr__`` imports a public name from its defining module the first
time it is read and binds it, so later reads are plain attribute loads."""

from importlib import import_module
from typing import Any, Dict, List, Mapping


class LazyExports:
    def __init__(self, namespace: Dict[str, Any],
                 table: Mapping[str, str]) -> None:
        """``table``: relative defining module -> its public names."""
        self._namespace = namespace
        package = namespace["__name__"]
        #: public name -> absolute name of its defining module.
        self.home = {name: package + module
                     for module, names in table.items()
                     for name in names.split()}
        self.names = sorted(self.home)

    def load(self, name: str) -> Any:
        if name not in self.home:
            raise AttributeError(f"module {self._namespace['__name__']!r} "
                                 f"has no attribute {name!r}")
        value = self._namespace[name] = getattr(
            import_module(self.home[name]), name)
        return value

    def dir(self) -> List[str]:
        return sorted(self._namespace.keys() | self.home.keys())
