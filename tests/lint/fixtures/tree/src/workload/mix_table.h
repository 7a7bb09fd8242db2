// orphan fixture (negative): a bench includes this header, so it is used.
#pragma once

int mix_table_size();
