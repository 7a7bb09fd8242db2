// orphan fixture: a use outside tests/.
#include "workload/mix_table.h"

int bench_mix_rows() { return mix_table_size(); }
