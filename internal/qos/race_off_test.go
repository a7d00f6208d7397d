//go:build !race

package qos

const raceBuild = false
