// orphan fixture: a test is not a use either.
#include "workload/trace_only.h"

int main() { return trace_only_value() == 1 ? 0 : 1; }
