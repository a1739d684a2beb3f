// Load generator: one thread driving up to four nonblocking loopback TCP
// connections with poll().
//
// Closed loop: each connection sends its next line once the response to
// the previous one has arrived and the line's think time has passed. Open
// loop: every line has a due time on a fixed schedule and is sent then,
// whatever is still outstanding; its latency counts from the due time, so
// a stall also charges the lines that queue behind it.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "workload.h"

namespace perfbench {

struct Sample {
  const Line* line = nullptr;
  double due_ms = 0.0;   ///< When the line should have been sent.
  double send_ms = 0.0;  ///< When it was written to the socket.
  double recv_ms = 0.0;  ///< When its response line arrived.
  std::string response;
};

struct LoadResult {
  std::vector<Sample> samples;  ///< Every line sent, in send order.
  double phase_ms = 0.0;        ///< Length of the sending window.
  size_t completed_in_phase = 0;
};

class LoadGen {
 public:
  /// Opens `connections` connections to 127.0.0.1:`port` (set-up cost).
  static fairhms::StatusOr<LoadGen> Connect(int port, int connections);

  LoadGen(LoadGen&& other) noexcept;
  LoadGen& operator=(LoadGen&&) = delete;
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen();

  /// Sends the lines for `seconds` (closed or open loop), then waits for
  /// every outstanding response. Lines go out on Line::conn.
  fairhms::StatusOr<LoadResult> Run(const std::vector<Line>& lines,
                                    bool open_loop, double seconds);

 private:
  explicit LoadGen(std::vector<int> fds) : fds_(std::move(fds)) {}
  std::vector<int> fds_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
