import os

import pytest
from hypothesis import settings

from weylgrowth import build_catalog, enumerate_levels

# On CI a failing property test also prints a blob that replays its example
# (@reproduce_failure), so the failure can be rerun from the log alone.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def ha2_growth_24():
    return enumerate_levels(build_catalog("HA2").gcm, 24)


@pytest.fixture(scope="session")
def ha3_growth_27():
    return enumerate_levels(build_catalog("HA3").gcm, 27)
