// orphan fixture: the header's own .cpp does not count as a use.
#include "workload/trace_only.h"

int trace_only_value() { return 1; }
