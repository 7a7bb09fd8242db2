// orphan fixture: a module that only its own .cpp and a unit test include.
#pragma once  // finding: orphan module

int trace_only_value();
