// Umbrella header: everything a library consumer needs.
//
//   #include "src/dtaint.h"
//
//   dtaint::DTaint detector;
//   auto report = detector.Analyze(binary);
//
// Individual headers remain includable for finer-grained dependencies.
#pragma once

#include "src/binary/binary.h"
#include "src/binary/loader.h"
#include "src/binary/writer.h"
#include "src/cfg/callgraph.h"
#include "src/cfg/cfg_builder.h"
#include "src/cfg/loops.h"
#include "src/core/alias.h"
#include "src/core/dtaint.h"
#include "src/core/interproc.h"
#include "src/core/pathfinder.h"
#include "src/core/sanitizer.h"
#include "src/core/scan_image.h"
#include "src/core/structsim.h"
#include "src/firmware/extractor.h"
#include "src/firmware/image.h"
#include "src/firmware/packer.h"
#include "src/ir/block.h"
#include "src/ir/printer.h"
#include "src/isa/asm_builder.h"
#include "src/isa/decode.h"
#include "src/isa/encode.h"
#include "src/lifter/lifter.h"
#include "src/report/json.h"
#include "src/report/scoring.h"
#include "src/report/table.h"
#include "src/symexec/engine.h"
#include "src/symexec/libmodels.h"
#include "src/synth/firmware_synth.h"
#include "src/synth/paper_images.h"
#include "src/util/status.h"

namespace dtaint {

/// Library version (semver).
inline constexpr const char* kVersion = "1.0.0";

}  // namespace dtaint
