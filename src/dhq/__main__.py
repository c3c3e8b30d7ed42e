import gc

gc.disable()  # before numpy and dhq are imported: the process ends by os._exit, not by collecting
from .cli import run  # noqa: E402

run()
