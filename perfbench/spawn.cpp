// Runs one command and reports its wall time, CPU time and peak resident
// set size.
//
//   perfbench_spawn TIMEOUT_S STDOUT_FILE STDERR_FILE PROGRAM [ARGS...]
//
// prints `exit=<code> wall_s=<seconds> cpu_s=<seconds> maxrss_kb=<kb>`
// (cpu_s is user + system time) and exits 0, or
// exits 2 if PROGRAM could not be started. A command still running after
// TIMEOUT_S seconds is killed and waited for (exit=-9).
//
// Why not time the command from Python: a child's peak RSS includes the
// memory of the process it was forked from (Linux carries it over fork and
// exec), so a Python parent adds its own ~20 MB to every reading. This
// launcher uses only libc, keeping that floor near 1 MB, and its timing
// leaves out the interpreter's spawn overhead.

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace {

volatile sig_atomic_t g_child = 0;

void on_alarm(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: perfbench_spawn TIMEOUT_S STDOUT STDERR PROGRAM "
                 "[ARGS...]\n");
    return 2;
  }
  const unsigned timeout = static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));
  const int out = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err = open(argv[3], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0 || err < 0 || timeout == 0) {
    std::perror("perfbench_spawn");
    return 2;
  }
  signal(SIGALRM, on_alarm);
  const double t0 = now_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    dup2(out, STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    execv(argv[4], argv + 4);
    _exit(127);
  }
  g_child = pid;
  alarm(timeout);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 2;
    }
  }
  const double wall = now_s() - t0;
  alarm(0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : -WTERMSIG(status);
  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  std::printf("exit=%d wall_s=%.9f cpu_s=%.6f maxrss_kb=%ld\n", code, wall,
              cpu, usage.ru_maxrss);
  return code == 127 ? 2 : 0;
}
