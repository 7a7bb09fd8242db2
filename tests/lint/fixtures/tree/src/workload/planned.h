// orphan fixture: a deliberate orphan, suppressed with its reason.
// cpm-lint: allow(orphan) fixture: reserved for a planned gated check
#pragma once

int planned_value();
