"""Shared test configuration.

Property tests run under one ``hypothesis`` profile: no per-example deadline,
since example times drift with the load on a small shared machine, and no
example database.  Hypothesis also caches the constants it finds in the
source; that cache goes to a temporary directory removed after the run, so a
test run leaves no ``.hypothesis/`` directory in the checkout.
"""

import shutil
import tempfile

from hypothesis import configuration, settings

settings.register_profile("sparsehawkes", deadline=None, database=None)
settings.load_profile("sparsehawkes")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    configuration.set_hypothesis_home_dir(home)
