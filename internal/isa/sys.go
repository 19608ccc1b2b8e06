package isa

import "fmt"

// Sys identifies a system call. The numbering follows the Linux x86-64 ABI
// for the calls the paper's Chromium workload actually issued, so traces read
// like the ones the original Pin tool produced.
type Sys uint32

const (
	SysRead         Sys = 0
	SysWrite        Sys = 1
	SysMmap         Sys = 9
	SysIoctl        Sys = 16
	SysWritev       Sys = 20
	SysMadvise      Sys = 28
	SysSendto       Sys = 44
	SysRecvfrom     Sys = 45
	SysSendmsg      Sys = 46
	SysRecvmsg      Sys = 47
	SysFutex        Sys = 202
	SysClockGettime Sys = 228
	SysEpollWait    Sys = 232
)

// sysNames names the modeled calls. What memory a particular call reads or
// writes is a runtime fact, recorded in the trace's syscall side table.
var sysNames = map[Sys]string{
	SysRead:         "read",
	SysWrite:        "write",
	SysMmap:         "mmap",
	SysIoctl:        "ioctl",
	SysWritev:       "writev",
	SysMadvise:      "madvise",
	SysSendto:       "sendto",
	SysRecvfrom:     "recvfrom",
	SysSendmsg:      "sendmsg",
	SysRecvmsg:      "recvmsg",
	SysFutex:        "futex",
	SysClockGettime: "clock_gettime",
	SysEpollWait:    "epoll_wait",
}

func (s Sys) String() string {
	if name, ok := sysNames[s]; ok {
		return name
	}
	return fmt.Sprintf("sys(%d)", uint32(s))
}
